package obs_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"givetake/internal/lint"
	"givetake/internal/obs"
)

// TestNoUndeclaredSpanOrCounterNames runs the obsnames analyzer over
// the whole repository and asserts it comes back clean: every span
// name reaching obs.Begin or a Collector's BeginSpan is declared in
// names.go. This used to be a hand-rolled AST walk over
// string literals; the type-aware analyzer it delegates to now also
// resolves aliased imports, named constants, and dynamic
// prefix+variant names, so an ad-hoc name cannot hide behind any of
// those. (The test lives in obs_test to avoid the obs → lint → obs
// import cycle.)
func TestNoUndeclaredSpanOrCounterNames(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	root := filepath.Clean(filepath.Join(filepath.Dir(self), "..", ".."))

	findings, err := lint.Run(lint.Config{
		Dir:       root,
		Analyzers: []*lint.Analyzer{lint.ObsNames},
	}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// TestDeclaredNamesSelfConsistent pins the vocabulary's own shape:
// no duplicates across spans, prefixes, and metrics, and every
// declared name is non-empty.
func TestDeclaredNamesSelfConsistent(t *testing.T) {
	seen := map[string]string{}
	note := func(group string, names []string) {
		for _, n := range names {
			if n == "" {
				t.Errorf("%s: empty declared name", group)
			}
			if prev, dup := seen[n]; dup {
				t.Errorf("name %q declared in both %s and %s", n, prev, group)
			}
			seen[n] = group
		}
	}
	note("spans", obs.Spans())
	note("span-prefixes", obs.SpanPrefixes())
	note("metrics", obs.Metrics())

	for _, s := range obs.Spans() {
		if !obs.KnownSpan(s) {
			t.Errorf("declared span %q not known", s)
		}
	}
	if obs.KnownSpan("never-declared") || obs.KnownMetric("never-declared") {
		t.Error("unknown name reported as known")
	}
	if !obs.KnownSpan(obs.SpanPrefixExecute + "variant") {
		t.Error("declared prefix does not admit its dynamic names")
	}
}
