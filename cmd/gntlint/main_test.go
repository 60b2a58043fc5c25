package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListCatalog pins the -list output: one line per analyzer, name
// first, followed by a one-line doc.
func TestListCatalog(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("gntlint -list exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{"ctxpoll", "errdrop", "obsnames", "statslock", "timerleak"}
	if len(lines) != len(want) {
		t.Fatalf("want %d catalog lines, got %d:\n%s", len(want), len(lines), out.String())
	}
	for i, name := range want {
		fields := strings.Fields(lines[i])
		if len(fields) < 2 || fields[0] != name {
			t.Errorf("catalog line %d: want %q plus a doc line, got %q", i, name, lines[i])
		}
	}
}

// TestSelfClean is the CI gate in test form: the repository's own code
// must produce zero findings.
func TestSelfClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", "../..", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("gntlint is not self-clean (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run must print nothing, got:\n%s", out.String())
	}
}

// TestFindingsExitAndJSON drives a deliberately leaky fixture through
// the CLI: text mode exits 1 with file:line findings, JSON mode emits
// a machine-readable array.
func TestFindingsExitAndJSON(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

func f(n int) {
	for i := 0; i < n; i++ {
		<-time.After(time.Microsecond)
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "leaky.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run([]string{"-dir", "../..", dir}, &out, &errb)
	if code != 1 {
		t.Fatalf("want exit 1 on findings, got %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "leaky.go:7") || !strings.Contains(out.String(), "timerleak") {
		t.Fatalf("finding output missing file:line or analyzer:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-json", "-dir", "../..", dir}, &out, &errb)
	if code != 1 {
		t.Fatalf("want exit 1 on findings, got %d: %s", code, errb.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) != 1 || findings[0].Analyzer != "timerleak" || findings[0].Line != 7 {
		t.Fatalf("unexpected JSON findings: %+v", findings)
	}
}

// TestAnalyzerSelection covers -c: selecting a quiet analyzer over a
// leaky fixture finds nothing; an unknown name is a usage error.
func TestAnalyzerSelection(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

func f(n int) {
	for i := 0; i < n; i++ {
		<-time.After(time.Microsecond)
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "leaky.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-c", "errdrop", "-dir", "../..", dir}, &out, &errb); code != 0 {
		t.Fatalf("errdrop alone must not flag a timer leak; exit %d: %s", code, out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-c", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer must exit 2, got %d", code)
	}
	if !strings.Contains(errb.String(), "nosuch") {
		t.Fatalf("usage error must name the bad analyzer: %s", errb.String())
	}
}

// TestLoadErrorExit pins exit 2 on unparseable input.
func TestLoadErrorExit(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package p\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", "../..", dir}, &out, &errb); code != 2 {
		t.Fatalf("want exit 2 on load failure, got %d: %s", code, out.String())
	}
	if errb.Len() == 0 {
		t.Fatal("load failure must be reported on stderr")
	}
}
