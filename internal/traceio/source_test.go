package traceio

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/fstest"

	"github.com/approx-analytics/grass/internal/task"
)

// sampleFS exposes the vendored sample traces.
func sampleFS() fstest.MapFS {
	fsys := fstest.MapFS{}
	for _, name := range []string{"swim_fb_sample.tsv", "google_task_events_sample.csv.gz"} {
		b, err := os.ReadFile("testdata/samples/" + name)
		if err != nil {
			panic(err)
		}
		fsys[name] = &fstest.MapFile{Data: b}
	}
	return fsys
}

// TestScanVendoredSamples pins the vendored samples' decoded shape: the CI
// golden replay depends on these exact jobs.
func TestScanVendoredSamples(t *testing.T) {
	fsys := sampleFS()
	cases := []struct {
		file                string
		format              Format
		jobs, tasks, phases int
		bins                [3]int
	}{
		{"swim_fb_sample.tsv", SWIM, 2000, 47602, 1221, [3]int{1704, 296, 0}},
		{"google_task_events_sample.csv.gz", GoogleTaskEvents, 400, 8106, 0, [3]int{342, 58, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			st, err := Scan(fsys, tc.file, tc.format, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if st.Jobs != tc.jobs || st.Tasks != tc.tasks || st.Phases != tc.phases || st.Bins != tc.bins {
				t.Errorf("scan = %d jobs / %d tasks / %d reduce / bins %v, want %d / %d / %d / %v",
					st.Jobs, st.Tasks, st.Phases, st.Bins, tc.jobs, tc.tasks, tc.phases, tc.bins)
			}
			if st.Span <= 0 || st.TotalWork <= 0 {
				t.Errorf("degenerate stats: span %v, total work %v", st.Span, st.TotalWork)
			}
		})
	}
}

// TestShardUnionEqualsFull: for every shard count, the per-shard streams
// partition the full stream exactly — same jobs, same IDs, same bounds —
// which is what makes sharded imported replays byte-identical.
func TestShardUnionEqualsFull(t *testing.T) {
	fsys := sampleFS()
	for _, tc := range []struct {
		file   string
		format Format
	}{
		{"swim_fb_sample.tsv", SWIM},
		{"google_task_events_sample.csv.gz", GoogleTaskEvents},
	} {
		full := map[int]string{}
		src, err := NewSource(fsys, tc.file, tc.format, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			full[j.ID] = fmt.Sprintf("%+v", *j)
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		src.Close()

		for _, shards := range []int{2, 3} {
			seen := map[int]string{}
			for s := 0; s < shards; s++ {
				ss, err := NewShardSource(fsys, tc.file, tc.format, DefaultOptions(), s, shards)
				if err != nil {
					t.Fatal(err)
				}
				for {
					j, ok := ss.Next()
					if !ok {
						break
					}
					if j.ID%shards != s {
						t.Fatalf("%s: shard %d/%d emitted job %d", tc.file, s, shards, j.ID)
					}
					if _, dup := seen[j.ID]; dup {
						t.Fatalf("%s: job %d emitted twice", tc.file, j.ID)
					}
					seen[j.ID] = fmt.Sprintf("%+v", *j)
				}
				if err := ss.Err(); err != nil {
					t.Fatal(err)
				}
				ss.Close()
			}
			if len(seen) != len(full) {
				t.Fatalf("%s: %d shards produced %d jobs, full stream %d", tc.file, shards, len(seen), len(full))
			}
			for id, want := range full {
				if seen[id] != want {
					t.Errorf("%s: job %d differs sharded vs full:\n  shard %s\n  full  %s", tc.file, id, seen[id], want)
				}
			}
		}
	}
}

// TestGzipIdenticalToPlain: compressing the file must not change one byte of
// the decoded jobs.
func TestGzipIdenticalToPlain(t *testing.T) {
	plain, err := os.ReadFile("testdata/samples/swim_fb_sample.tsv")
	if err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(plain)
	zw.Close()
	fsys := fstest.MapFS{
		"t.tsv":    &fstest.MapFile{Data: plain},
		"t.tsv.gz": &fstest.MapFile{Data: zbuf.Bytes()},
	}
	for _, name := range []string{"t.tsv", "t.tsv.gz"} {
		st, err := Scan(fsys, name, SWIM, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if st.Jobs != 2000 {
			t.Errorf("%s: %d jobs, want 2000", name, st.Jobs)
		}
	}
	a, _ := NewSource(fsys, "t.tsv", SWIM, DefaultOptions())
	b, _ := NewSource(fsys, "t.tsv.gz", SWIM, DefaultOptions())
	for {
		ja, oka := a.Next()
		jb, okb := b.Next()
		if oka != okb {
			t.Fatal("plain and gzip streams ended at different jobs")
		}
		if !oka {
			break
		}
		if fmt.Sprintf("%+v", *ja) != fmt.Sprintf("%+v", *jb) {
			t.Fatalf("job %d differs plain vs gzip", ja.ID)
		}
		a.Release(ja)
		b.Release(jb)
	}
}

// TestSourcePoolRecycles pins the bounded-memory contract at the unit
// level: released jobs are handed back out instead of fresh allocations.
func TestSourcePoolRecycles(t *testing.T) {
	text := fmt.Sprintf("a\t0\t1\t%d\t0\t0\nb\t1\t1\t%d\t0\t0\n", 64*mib, 64*mib)
	src := swimSource(text, DefaultOptions())
	j1, ok := src.Next()
	if !ok {
		t.Fatal("no first job")
	}
	src.Release(j1)
	j2, ok := src.Next()
	if !ok {
		t.Fatal("no second job")
	}
	if j1 != j2 {
		t.Error("released job was not recycled by the next Next")
	}
	if j2.ID != 1 {
		t.Errorf("recycled job kept stale ID %d, want 1", j2.ID)
	}
}

func TestOpenFileErrors(t *testing.T) {
	if _, err := NewSource(fstest.MapFS{}, "missing.tsv", SWIM, DefaultOptions()); err == nil {
		t.Error("opening a missing file succeeded")
	}
	bad := fstest.MapFS{"broken.gz": &fstest.MapFile{Data: []byte("not gzip at all")}}
	if _, err := NewSource(bad, "broken.gz", SWIM, DefaultOptions()); err == nil {
		t.Error("opening a corrupt .gz succeeded")
	}
	if _, err := NewShardSource(nil, "x.tsv", SWIM, DefaultOptions(), 3, 2); err == nil {
		t.Error("shard 3 of 2 accepted")
	}
	o := DefaultOptions()
	o.BytesPerTask = 0
	if _, err := NewSource(fstest.MapFS{}, "x.tsv", SWIM, o); err == nil {
		t.Error("invalid Options accepted")
	}
}

// TestLineTooLong pins the positioned error for records over the 1 MiB line
// cap (a binary file fed to the importer by mistake).
func TestLineTooLong(t *testing.T) {
	long := strings.Repeat("x", maxLineBytes+10)
	src := swimSource("a\t0\t1\t5\t0\t0\n"+long+"\n", DefaultOptions())
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		src.Release(j)
	}
	err := src.Err()
	var de *DecodeError
	if err == nil || !errors.As(err, &de) {
		t.Fatalf("want a positioned DecodeError for an over-long line, got %v", err)
	}
	if de.Pos.Line != 2 {
		t.Errorf("error at line %d, want 2", de.Pos.Line)
	}
}

// TestScanEmptyTrace: comment-only files decode to zero jobs and no error —
// the CLI layers turn that into an actionable message.
func TestScanEmptyTrace(t *testing.T) {
	fsys := fstest.MapFS{"empty.tsv": &fstest.MapFile{Data: []byte("# nothing here\n\n")}}
	st, err := Scan(fsys, "empty.tsv", SWIM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 0 {
		t.Errorf("empty trace scanned to %d jobs", st.Jobs)
	}
}

func TestWriteJobsJSON(t *testing.T) {
	text := fmt.Sprintf("a\t0\t1\t%d\t%d\t0\nb\t1\t1\t0\t0\t0\n", 300*mib, 64*mib)
	src := swimSource(text, DefaultOptions())
	var buf bytes.Buffer
	n, err := WriteJobsJSON(&buf, src)
	if err != nil || src.Err() != nil {
		t.Fatalf("write: %v / %v", err, src.Err())
	}
	if n != 2 {
		t.Fatalf("wrote %d jobs, want 2", n)
	}
	var jobs []*task.Job
	if err := json.Unmarshal(buf.Bytes(), &jobs); err != nil {
		t.Fatalf("output is not a JSON job array: %v", err)
	}
	if len(jobs) != 2 || jobs[0].NumTasks() != 3 || len(jobs[0].Phases) != 1 {
		t.Errorf("round-tripped jobs wrong: %+v", jobs)
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("round-tripped job %d invalid: %v", j.ID, err)
		}
	}
}

// TestParseFormat: Format's text form is the flag parser — every accepted
// spelling resolves, unknown names are rejected by name, and MarshalText
// round-trips.
func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"swim": SWIM, "FB": SWIM, "facebook": SWIM, "google": GoogleTaskEvents, "google-task-events": GoogleTaskEvents} {
		var f Format
		if err := f.UnmarshalText([]byte(in)); err != nil || f != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", in, f, err, want)
		}
	}
	var f Format
	if err := f.UnmarshalText([]byte("borg")); err == nil || !strings.Contains(err.Error(), "borg") {
		t.Errorf("UnmarshalText(borg) error %v should name the bad input", err)
	}
	for _, f := range []Format{SWIM, GoogleTaskEvents} {
		b, _ := f.MarshalText()
		var back Format
		if err := back.UnmarshalText(b); err != nil || back != f || string(b) != f.String() {
			t.Errorf("%v does not round-trip its text form %q", f, b)
		}
	}
}
