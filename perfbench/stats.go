package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// timing summarises a sample of one timed quantity: its median, and the
// highest of the standard percentiles with at least ten samples beyond it
// (omitted when the sample is too small for any).
type timing struct {
	Median float64 `json:"median"`
	Pct    float64 `json:"pct,omitempty"`
	AtPct  float64 `json:"at_pct,omitempty"`
	N      int     `json:"n"`
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t.Median = quantile(s, 0.5)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			t.Pct, t.AtPct = p, quantile(s, p/100)
			break
		}
	}
	return t
}

// quantile reads the q-quantile of sorted s by linear interpolation.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the live heap every few milliseconds until stopped and
// keeps the peak. Live bytes are those the last collection marked: unlike
// all heap objects, they do not swing with where the run stands in its GC
// cycle. runtime/metrics reads without stopping the world.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > w.peak {
			w.peak = v
		}
	}
	read()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-w.stop:
				read()
				return
			}
		}
	}()
	return w
}

// finish stops sampling and returns the peak in MiB.
func (w *heapWatch) finish() float64 {
	close(w.stop)
	w.wg.Wait()
	return float64(w.peak) / (1 << 20)
}

// env identifies the machine, toolchain and source a record was measured
// with.
type env struct {
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func readEnv(root string) env {
	e := env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
	}
	// A checkout without git history has no commit; the source digest
	// still identifies the code that ran.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	e.SourceSHA256 = sourceDigest(root)
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, in path
// order, skipping hidden and build directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
