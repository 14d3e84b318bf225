package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGolden runs small traces through the command and compares its stdout
// byte for byte against goldens in testdata. Most of these jobs' phases are
// small (tens to hundreds of tasks), so the goldens pin the simulator's
// small-phase behaviour through its public entry point; the spark case also
// pins the Spark estimator-noise regime.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"gs", []string{"-policy", "gs", "-jobs", "40"}},
		{"late", []string{"-policy", "late", "-jobs", "40"}},
		{"grass", []string{"-policy", "grass", "-jobs", "40"}},
		{"oracle", []string{"-policy", "oracle", "-jobs", "40"}},
		{"grass-spark", []string{"-policy", "grass", "-framework", "spark", "-jobs", "40"}},
		{"ras-bing-error", []string{"-policy", "ras", "-workload", "bing", "-bound", "error", "-jobs", "40"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != 0 {
				t.Fatalf("grass-sim %v exited %d: %s", c.args, code, errb.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("grass-sim %v output changed:\ngot:\n%s\nwant:\n%s", c.args, out.Bytes(), want)
			}
		})
	}
}

// TestRejectsUnknownNames: bad policy, workload, framework and bound names
// are reported as errors, not panics or silent defaults. A bad enum value
// is a command-line error (exit 2, naming the flag); an unknown policy
// fails the run (exit 1).
func TestRejectsUnknownNames(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
		msg  string
	}{
		{"-policy nope -jobs 2", 1, "unknown policy"},
		{"-workload nope -jobs 2", 2, "-workload"},
		{"-framework nope -jobs 2", 2, "-framework"},
		{"-bound nope -jobs 2", 2, "-bound"},
		{"-nosuchflag", 2, "-nosuchflag"},
		{"-jobs 0", 1, "0 jobs"},
	} {
		var errb bytes.Buffer
		code := run(strings.Fields(c.args), new(bytes.Buffer), &errb)
		if code != c.code || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("grass-sim %s: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.msg)
		}
	}
}

// TestFlagSurface diffs every flag's name and default against
// testdata/flags.golden, captured from the command's flag surface before
// its flags were rebound to typed fields: no flag added, removed or
// re-defaulted without the golden saying so.
func TestFlagSurface(t *testing.T) {
	fs, _, _ := newFlags(io.Discard)
	var b strings.Builder
	b.WriteString("[grass-sim]\n")
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "-%s %s\n", f.Name, strconv.Quote(f.DefValue))
	})
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("flag surface changed:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}
