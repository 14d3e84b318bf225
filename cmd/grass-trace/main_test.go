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

// TestGolden compares synthetic generation's stdout — the summary and job
// listing, and the JSON form — byte for byte against goldens in testdata.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"jobs20", []string{"-jobs", "20"}},
		{"json5", []string{"-json", "-jobs", "5"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != 0 {
				t.Fatalf("grass-trace %v exited %d: %s", c.args, code, errb.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("grass-trace %v output changed:\ngot:\n%s\nwant:\n%s", c.args, out.Bytes(), want)
			}
		})
	}
}

// TestRejectedInvocations pins the exit status of invocations the command
// must refuse: 2 for a command-line error (an unknown flag, a bad enum
// value), 1 for a failed run.
func TestRejectedInvocations(t *testing.T) {
	const swim = "-in ../../internal/traceio/testdata/samples/swim_fb_sample.tsv"
	cases := []struct {
		args string
		code int
		msg  string // substring of stderr
	}{
		{"bogus", 1, "unknown subcommand"},
		{"-workload nope", 2, "-workload"},
		{"-framework nope", 2, "-framework"},
		{"-bound nope", 2, "-bound"},
		{"-jobs 0", 1, "0 jobs"},
		{"-nosuchflag", 2, "-nosuchflag"},
		{"validate", 1, "-in is required"},
		{"validate " + swim, 1, "-format is required"},
		{"validate " + swim + " -format bogus", 2, "-format"},
		{"stat " + swim + " -format swim -bound bogus", 2, "-bound"},
		{"convert -in testdata/no-such-file.tsv -format swim", 1, "no such file"},
		{"validate " + swim + " -format swim extra", 1, "unexpected argument"},
		{"validate -nosuchflag", 2, "-nosuchflag"},
		{"stat " + swim + " -format swim -work-scale 0", 1, "WorkScale"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := run(strings.Fields(c.args), &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("grass-trace %s: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.msg)
		}
	}
}

// TestFlagSurface diffs every flag's name and default — of synthetic
// generation and of each import subcommand — against testdata/flags.golden,
// captured from the command's flag surface before its flags were rebound
// to typed fields: no flag added, removed or re-defaulted without the
// golden saying so.
func TestFlagSurface(t *testing.T) {
	var b strings.Builder
	section := func(title string, fs *flag.FlagSet) {
		fmt.Fprintf(&b, "[%s]\n", title)
		fs.VisitAll(func(f *flag.Flag) {
			fmt.Fprintf(&b, "-%s %s\n", f.Name, strconv.Quote(f.DefValue))
		})
	}
	for _, c := range []struct {
		title string
		cmd   command
	}{
		{"grass-trace", synthetic},
		{"grass-trace validate", importer("validate")},
		{"grass-trace stat", importer("stat")},
		{"grass-trace convert", importer("convert")},
	} {
		fs := flag.NewFlagSet(c.title, flag.ContinueOnError)
		c.cmd(fs, io.Discard, io.Discard)
		section(c.title, fs)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("flag surface changed:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}
