package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServe compiles the command once per test into a temp dir, so the
// signal tests exercise the real process-level path (signal.Notify, the
// drain, the exit code) rather than an in-process approximation.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "grass-serve")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building grass-serve: %v\n%s", err, out)
	}
	return bin
}

// TestGracefulSignalDrainsToSummary: the first SIGTERM (and, separately,
// SIGINT) closes admission instead of killing the run — in-flight jobs
// drain and the process exits 0 with the machine-parseable SLO summary, the
// contract an orchestrator's stop hook relies on.
func TestGracefulSignalDrainsToSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real process")
	}
	bin := buildServe(t)
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		t.Run(sig.String(), func(t *testing.T) {
			// Wall-paced and wall-bounded: admission trickles slowly enough
			// that the signal lands mid-run, and -for backstops the test if
			// the signal path breaks entirely.
			cmd := exec.Command(bin, "-jobs", "0", "-for", "2m", "-wall-speed", "25")
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// The banner prints after the signal handler is installed; wait
			// for it so the signal cannot land before Notify.
			br := bufio.NewReader(stdout)
			banner, err := br.ReadString('\n')
			if err != nil || !strings.HasPrefix(banner, "serving ") {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("banner = %q, %v (stderr: %s)", banner, err, stderr.String())
			}
			time.Sleep(500 * time.Millisecond) // let a few jobs enter flight
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			rest, _ := io.ReadAll(br)
			err = cmd.Wait()
			out := string(rest)
			if err != nil {
				t.Fatalf("graceful %v exited with %v\nstdout: %s\nstderr: %s", sig, err, out, stderr.String())
			}
			if !strings.Contains(out, "SLO latency p50=") {
				t.Fatalf("graceful %v produced no SLO summary\nstdout: %s\nstderr: %s", sig, out, stderr.String())
			}
			if !strings.Contains(stderr.String(), "closing admission") {
				t.Fatalf("no drain notice on stderr: %s", stderr.String())
			}
		})
	}
}

// TestScenarioFlagValidation: a bad -scenario fails fast with the preset
// list, before any service starts.
func TestScenarioFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real process")
	}
	bin := buildServe(t)
	out, err := exec.Command(bin, "-scenario", "nope", "-jobs", "10").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown scenario accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown scenario") {
		t.Fatalf("error does not name the problem:\n%s", out)
	}
}

// TestRejectedInvocations pins the exit status of invocations the command
// must refuse before any service starts: 2 for a command-line error (an
// unknown flag, a bad enum value), 1 for a rejected value.
func TestRejectedInvocations(t *testing.T) {
	cases := []struct {
		args string
		code int
		msg  string // substring of stderr
	}{
		{"-jobs -1", 1, "-jobs -1"},
		{"-jobs 0", 1, "unbounded run"},
		{"-partitions 0", 1, "-partitions 0"},
		{"-rate -1", 1, "-rate -1"},
		{"-wall-speed -1", 1, "-wall-speed -1"},
		{"-queue-cap -1", 1, "-queue-cap -1"},
		{"-workload nope -jobs 10", 2, "-workload"},
		{"-bound nope -jobs 10", 2, "-bound"},
		{"-scenario nope -jobs 10", 1, "unknown scenario"},
		{"-policy nope -jobs 10", 1, "unknown policy"},
		{"-nosuchflag", 2, "-nosuchflag"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := run(strings.Fields(c.args), &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("grass-serve %s: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.msg)
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
	b.WriteString("[grass-serve]\n")
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
