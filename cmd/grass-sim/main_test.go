package main

import (
	"bytes"
	"os"
	"path/filepath"
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
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
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
// are reported as errors, not panics or silent defaults.
func TestRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "nope"},
		{"-workload", "nope"},
		{"-framework", "nope"},
		{"-bound", "nope"},
	} {
		if err := run(append(args, "-jobs", "2"), new(bytes.Buffer)); err == nil {
			t.Errorf("grass-sim %v: no error", args)
		}
	}
}
