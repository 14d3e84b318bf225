package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// canon strips the machine-dependent lines from the command's output, the
// way scripts/fault_smoke.sh does: the wall-clock suffix on a replay
// header, the shard-balance line (timing-derived), the heap high-water
// line, and an experiment's "[<id> took …]" line. Everything else is
// simulation output and must be byte-identical everywhere.
func canon(out string) string {
	wall := regexp.MustCompile(` \[[0-9a-z.]+s?\]$`)
	took := regexp.MustCompile(`^\[\S+ took [^]]*\]$`)
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "sharded execution") || strings.HasPrefix(l, "memory high-water") || took.MatchString(l) {
			continue
		}
		keep = append(keep, wall.ReplaceAllString(l, ""))
	}
	return strings.Join(keep, "\n")
}

// TestGolden runs streaming replays (plain, oracle, partitioned sketch
// learning, sharded under crash faults) and one experiment table through
// the command and compares the canonical stdout byte for byte against
// goldens in testdata.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"gs", []string{"-jobs", "300"}},
		{"oracle", []string{"-jobs", "300", "-policy", "oracle"}},
		{"grass", []string{"-jobs", "300", "-policy", "grass", "-learner", "sketch", "-partitions", "2"}},
		{"crashy", []string{"-jobs", "300", "-scenario", "crashy", "-shards", "2"}},
		{"theorem1", []string{"-fig", "theorem1"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != 0 {
				t.Fatalf("grass-bench %v exited %d: %s", c.args, code, errb.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := canon(out.String()); got != string(want) {
				t.Fatalf("grass-bench %v output changed:\ngot:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}

// TestRejectedInvocations pins the exit status of invocations the command
// must refuse: 2 for a command-line error (an unknown flag, a bad enum
// value), 1 for a rejected combination or a failed run. A flag set
// outside its mode is refused with a message naming it.
func TestRejectedInvocations(t *testing.T) {
	const swim = "../../internal/traceio/testdata/samples/swim_fb_sample.tsv"
	cases := []struct {
		args string
		code int
		msg  string // substring of stderr
	}{
		{"-fig nope", 1, "unknown experiment"},
		{"-jobs -1", 1, "-1 jobs"},
		{"-jobs 10 -shards 0", 1, "-shards 0"},
		{"-jobs 10 -partitions -1", 1, "-1 partitions"},
		{"-shards 0", 1, "-shards"},
		{"-partitions -1", 1, "-partitions"},
		{"-nosuchflag", 2, "-nosuchflag"},
		{"-jobs 10 -workload bogus", 2, "-workload"},
		{"-jobs 10 -bound bogus", 2, "-bound"},
		{"-jobs 10 -learner bogus", 2, "-learner"},
		{"-jobs 10 -policy bogus", 1, "unknown policy"},
		{"-jobs 10 -scenario bogus", 1, "unknown scenario"},
		{"-scenario crashy", 1, "-scenario"},
		{"-fault-seed 7", 1, "-fault-seed"},
		{"-jobs 10 -fig theorem1", 1, "-fig"},
		{"-jobs 10 -full", 1, "-full"},
		{"-jobs 3 -partitions 4", 1, "fewer than 4 partitions"},
		{"-jobs 2 -shards 4", 1, "fewer than 4 partitions"},
		{"-jobs 10 -learn-epochs 2", 1, "learn epochs"},
		{"-trace-file " + swim + " -jobs 10", 1, "-jobs"},
		{"-trace-file " + swim + " -workload bing", 1, "-workload"},
		{"-trace-file " + swim + " -fig theorem1", 1, "-fig"},
		{"-trace-file " + swim + " -trace-format bogus", 2, "-trace-format"},
		{"-trace-file testdata/no-such-file.tsv", 1, "-trace-file"},
		{"-fig theorem1 -workload bogus", 2, "-workload"},
		{"-fig theorem1 -workload bing", 1, "-workload"},
		{"-fig theorem1 -learner sketch -policy bogus", 1, "-learner"},
		{"-fig theorem1 -trace-format bogus", 2, "-trace-format"},
		{"-fig theorem1 -trace-format google", 1, "-trace-format"},
		{"-fig theorem1 -seed 2", 1, "-seed"},
		{"-jobs 50 -workers 3", 1, "-workers"},
		{"-jobs 50 -list", 1, "-jobs"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := run(strings.Fields(c.args), &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("grass-bench %s: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.msg)
		}
		if out.Len() > 0 {
			t.Errorf("grass-bench %s: a refused invocation wrote stdout: %q", c.args, out.String())
		}
	}
}

// TestFlagSurface diffs every flag's name and default against
// testdata/flags.golden, captured from the command's flag surface before
// its flags were rebound to typed fields: no flag added, removed or
// re-defaulted without the golden saying so.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags(io.Discard)
	var b strings.Builder
	b.WriteString("[grass-bench]\n")
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
