package givetake_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gt "givetake"
)

// corpusFiles returns every mini-Fortran program in testdata, including
// the kernels.
func corpusFiles(t testing.TB) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{"testdata/*.f", "testdata/kernels/*.f"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 5 {
		t.Fatalf("corpus unexpectedly small: %v", files)
	}
	return files
}

// The solver counters must witness the paper's §5.2 complexity claim on
// every corpus program: each of the fifteen equations evaluated exactly
// once per node per schedule (20 evaluations per node in total), with
// word-level work SetOps × Words.
func TestCorpusOnePassInvariant(t *testing.T) {
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := gt.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			a, err := gt.GenerateCommCtx(context.Background(), prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			counters := a.Counters()
			if len(counters) == 0 {
				t.Fatal("no solver counters")
			}
			for _, c := range counters {
				if err := c.OnePass(); err != nil {
					t.Error(err)
				}
				if want := int64(20 * c.Nodes); c.EquationEvals != want {
					t.Errorf("%s: EquationEvals = %d, want %d (20 × %d nodes)",
						c.Problem, c.EquationEvals, want, c.Nodes)
				}
				if c.WordOps != c.SetOps*int64(c.Words) {
					t.Errorf("%s: WordOps %d != SetOps %d × Words %d",
						c.Problem, c.WordOps, c.SetOps, c.Words)
				}
			}
		})
	}
}

// A recorder threaded through the facade must capture the pipeline
// phases and render a loadable trace for every corpus program.
func TestCorpusRecorderTrace(t *testing.T) {
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := gt.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			rec := gt.NewRecorder()
			if _, err := gt.GenerateCommCtx(context.Background(), prog, rec); err != nil {
				t.Fatal(err)
			}
			phases := rec.Phases()
			want := map[string]bool{"cfg-build": false, "interval-reduce": false,
				"solve-read": false, "solve-write": false}
			for _, p := range phases {
				if _, ok := want[p.Name]; ok {
					want[p.Name] = true
				}
			}
			for name, seen := range want {
				if !seen {
					t.Errorf("recorder missing %q phase", name)
				}
			}
			var sb strings.Builder
			if err := rec.WriteTrace(&sb); err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal([]byte(sb.String()), &tf); err != nil {
				t.Fatalf("trace not valid JSON: %v", err)
			}
			if len(tf.TraceEvents) < len(want) {
				t.Errorf("trace has %d events, want ≥ %d", len(tf.TraceEvents), len(want))
			}
		})
	}
}
