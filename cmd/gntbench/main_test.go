package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"givetake/internal/check"
)

func TestBenchArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"../../testdata"}, out, DefaultTimeout, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if art.Schema != Schema {
		t.Errorf("schema = %q, want %q", art.Schema, Schema)
	}
	// v8: a phase is a start offset and a wall time, nothing more.
	for _, gone := range []string{`"depth"`, `"alloc_bytes"`, `"alloc_objects"`} {
		if strings.Contains(string(b), gone) {
			t.Errorf("artifact still carries %s", gone)
		}
	}
	if len(art.Corpus) < 5 {
		t.Fatalf("corpus has %d entries, want the full testdata set", len(art.Corpus))
	}
	for _, e := range art.Corpus {
		if e.Error != "" {
			t.Errorf("%s: corpus entry errored: %s", e.File, e.Error)
			continue
		}
		if e.Report == nil || len(e.Report.Solver) == 0 || len(e.Report.Phases) == 0 {
			t.Errorf("%s: incomplete report", e.File)
			continue
		}
		for _, sc := range e.Report.Solver {
			if err := sc.OnePass(); err != nil {
				t.Errorf("%s: %v", e.File, err)
			}
		}
		// v2: every program records verifier wall time and work profile
		hasCheck := false
		for _, p := range e.Report.Phases {
			if p.Name == "check" {
				hasCheck = true
			}
		}
		if !hasCheck {
			t.Errorf("%s: report missing the check phase span", e.File)
		}
		raw, ok := e.Report.Extra["check"]
		if !ok {
			t.Errorf("%s: report missing the check extra section", e.File)
			continue
		}
		var chk struct {
			Errors int                    `json:"errors"`
			Stats  map[string]check.Stats `json:"stats"`
		}
		if err := json.Unmarshal(raw, &chk); err != nil {
			t.Errorf("%s: check extra not valid JSON: %v", e.File, err)
			continue
		}
		if chk.Errors != 0 {
			t.Errorf("%s: archived corpus has %d verification errors", e.File, chk.Errors)
		}
		if chk.Stats["READ"].Contexts == 0 {
			t.Errorf("%s: check stats empty: %+v", e.File, chk.Stats)
		}
	}
}

// TestBenchParallelSweep: -parallel adds the timing block, whose speedup
// is the median of its interleaved pairs, with the cache counters
// proving the warm pass was served entirely from cache.
func TestBenchParallelSweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"../../testdata"}, out, DefaultTimeout, 4, 0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatal(err)
	}
	if art.Timing == nil || art.Cache == nil {
		t.Fatal("parallel run must emit timing and cache sections")
	}
	if art.Timing.Parallel != 4 || art.Timing.ParallelWallMS <= 0 || art.Timing.SerialWallMS <= 0 {
		t.Fatalf("timing block incomplete: %+v", art.Timing)
	}
	if len(art.Timing.SpeedupPairs) != speedupPairs || art.Timing.Speedup != median(art.Timing.SpeedupPairs) {
		t.Fatalf("speedup %v is not the median of %d pairs %v", art.Timing.Speedup, speedupPairs, art.Timing.SpeedupPairs)
	}
	n := int64(len(art.Corpus))
	if art.Cache.Misses != n || art.Cache.Hits != n {
		t.Fatalf("cache counters = %+v, want %d hits and misses", art.Cache, n)
	}
	if got := art.Cache.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5 after one cold and one warm sweep", got)
	}
	if art.Pipeline == nil {
		t.Fatal("parallel run must emit the pipeline section")
	}
	if art.Pipeline.Items < len(art.Corpus) || art.Pipeline.WallMS <= 0 ||
		art.Pipeline.IdealWallMS <= 0 || art.Pipeline.Ratio <= 0 || art.Pipeline.Ratio > 1.001 {
		t.Fatalf("pipeline block incomplete: %+v", art.Pipeline)
	}
	if len(art.Pipeline.Stages) != 6 {
		t.Fatalf("pipeline block has %d stages, want 6", len(art.Pipeline.Stages))
	}
	// an impossible bar must fail the run
	if err := run([]string{"../../testdata"}, out, DefaultTimeout, 4, 1e9, 0); err == nil {
		t.Fatal("-assert-speedup 1e9 should fail")
	}
	if err := run([]string{"../../testdata"}, out, DefaultTimeout, 4, 0, 1.01); err == nil {
		t.Fatal("-assert-pipeline above 1 should fail")
	}
}

func TestBenchNoCorpus(t *testing.T) {
	if err := run([]string{t.TempDir()}, filepath.Join(t.TempDir(), "x.json"), DefaultTimeout, 0, 0, 0); err == nil {
		t.Fatal("empty corpus should error")
	}
}

// TestBenchTimeoutRecorded: a program exceeding the per-entry budget is
// recorded as an entry error in the artifact; the run exits nonzero but
// still writes every other entry.
func TestBenchTimeoutRecorded(t *testing.T) {
	dir := t.TempDir()
	// heavy enough that 1ns always expires before the pipeline finishes
	src := "distributed x(1000)\nreal y(1000)\ndo i = 1, n\n y(i) = x(i)\nenddo\n"
	if err := os.WriteFile(filepath.Join(dir, "slow.f"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{dir}, out, 1, 0, 0, 0)
	if err == nil {
		t.Fatal("timed-out corpus should make run return an error")
	}
	b, err2 := os.ReadFile(out)
	if err2 != nil {
		t.Fatalf("artifact must still be written: %v", err2)
	}
	var art artifact
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Corpus) != 1 {
		t.Fatalf("corpus entries = %d, want 1", len(art.Corpus))
	}
	e := art.Corpus[0]
	if e.Error == "" || e.Report != nil {
		t.Fatalf("timed-out entry must record the error and no report: %+v", e)
	}
	if !strings.Contains(e.Error, "timeout") &&
		!strings.Contains(e.Error, "deadline") && !strings.Contains(e.Error, "canceled") {
		t.Fatalf("entry error %q does not mention the timeout", e.Error)
	}
}
