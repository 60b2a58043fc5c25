package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// leakyTemplate is a minimal timerleak trigger; the %s slot takes a
// trailing directive and the %%s newline slot a standalone one.
const leakyTemplate = `package p

import "time"

func f(n int) {
	for i := 0; i < n; i++ {
		%s<-time.After(time.Microsecond) %s
	}
}
`

func writeFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func timerLeakFindings(t *testing.T, src string) []Finding {
	t.Helper()
	dir := writeFixture(t, src)
	findings, err := Run(Config{Analyzers: []*Analyzer{TimerLeak}}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestSuppressions pins the //lint:ignore contract: a well-formed
// directive on the finding's line (or standing alone on the line
// above) silences exactly the named analyzer; a malformed or
// unknown-analyzer directive is itself a finding and silences nothing.
func TestSuppressions(t *testing.T) {
	countBy := func(findings []Finding, analyzer string) int {
		n := 0
		for _, f := range findings {
			if f.Analyzer == analyzer {
				n++
			}
		}
		return n
	}

	t.Run("unsuppressed", func(t *testing.T) {
		fs := timerLeakFindings(t, fmt.Sprintf(leakyTemplate, "", ""))
		if countBy(fs, "timerleak") != 1 {
			t.Fatalf("want 1 timerleak finding, got %v", fs)
		}
	})
	t.Run("same-line", func(t *testing.T) {
		fs := timerLeakFindings(t, fmt.Sprintf(leakyTemplate, "", "//lint:ignore timerleak test exercises suppression"))
		if len(fs) != 0 {
			t.Fatalf("want no findings, got %v", fs)
		}
	})
	t.Run("line-above", func(t *testing.T) {
		fs := timerLeakFindings(t, fmt.Sprintf(leakyTemplate, "//lint:ignore timerleak test exercises suppression\n\t\t", ""))
		if len(fs) != 0 {
			t.Fatalf("want no findings, got %v", fs)
		}
	})
	t.Run("missing-reason", func(t *testing.T) {
		fs := timerLeakFindings(t, fmt.Sprintf(leakyTemplate, "", "//lint:ignore timerleak"))
		if countBy(fs, "gntlint") != 1 || countBy(fs, "timerleak") != 1 {
			t.Fatalf("want one malformed-directive finding and one unsuppressed timerleak finding, got %v", fs)
		}
	})
	t.Run("unknown-analyzer", func(t *testing.T) {
		fs := timerLeakFindings(t, fmt.Sprintf(leakyTemplate, "", "//lint:ignore nosuch reason"))
		if countBy(fs, "gntlint") != 1 || countBy(fs, "timerleak") != 1 {
			t.Fatalf("want one unknown-analyzer finding and one unsuppressed timerleak finding, got %v", fs)
		}
	})
	t.Run("wrong-analyzer", func(t *testing.T) {
		fs := timerLeakFindings(t, fmt.Sprintf(leakyTemplate, "", "//lint:ignore errdrop suppressing the wrong check"))
		if countBy(fs, "timerleak") != 1 {
			t.Fatalf("a directive for another analyzer must not suppress timerleak; got %v", fs)
		}
	})
}

// TestCatalog pins the registered analyzer set: the CI gate and the
// docs both promise exactly these checks exist.
func TestCatalog(t *testing.T) {
	want := []string{"ctxpoll", "errdrop", "obsnames", "statslock", "timerleak"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("want %d analyzers, got %d", len(want), len(all))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("analyzer %d: want %q, got %q", i, name, all[i].Name)
		}
		if all[i].Doc == "" {
			t.Errorf("analyzer %q has no doc line", name)
		}
		if ByName(name) != all[i] {
			t.Errorf("ByName(%q) does not round-trip", name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName of an unknown name must be nil")
	}
}
