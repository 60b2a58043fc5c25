package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"givetake/internal/progen"
)

// serveDigest is the SHA-256 of every /analyze response hashed by
// TestServeGoldenIdentity. Any change to a rendered placement, a ladder
// outcome, a check summary or a status code changes it; a deliberate
// change to what the service answers must say so and re-record it.
const serveDigest = "1dabf1afe7e5430c55dc63d3694ceb15bf6d0d5ea5e45f949bb9ed067ed8d156"

// hashResponse posts req to h's /analyze and appends the status and the
// response body, with its run-dependent fields zeroed, to sum. It
// returns the decoded response.
func hashResponse(t *testing.T, sum hash.Hash, h http.Handler, label string, req Request) *Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(string(body))))
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: response is not JSON: %v", label, err)
	}
	resp.Phases = nil
	for i := range resp.Ladder {
		resp.Ladder[i].DurationMS = 0
	}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(sum, "%s %d %d\n%s\n", label, w.Code, len(out), out)
	return &resp
}

// goldenProgram is one request of the serve golden corpus: kind is
// "plain", "mutate" or "panic".
type goldenProgram struct {
	label, kind string
	req         Request
}

// goldenPrograms lists the requests TestServeGoldenIdentity hashes, in
// order: the testdata corpus and 40 generated programs of 20 to 200
// statements, each plain and with a seeded solution mutation, and the
// corpus also with an injected rung-1 panic.
func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var files []string
	for _, pat := range []string{"../../testdata/*.f", "../../testdata/kernels/*.f"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	type program struct{ label, src string }
	var progs []program
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		progs = append(progs, program{filepath.Base(file), string(src)})
	}
	corpus := len(progs)
	for i := 0; i < 40; i++ {
		stmts := 20 + 180*i/39
		src := progen.GenerateSource(int64(7000+i), progen.Config{Stmts: stmts, Arrays: true, PGoto: 0.1})
		progs = append(progs, program{fmt.Sprintf("progen%d/%d", stmts, i), src})
	}
	var out []goldenProgram
	for i, p := range progs {
		out = append(out,
			goldenProgram{p.label, "plain", Request{Source: p.src}},
			goldenProgram{p.label + "/mutate", "mutate", Request{Source: p.src, Chaos: &ChaosSpec{MutateSeed: int64(i + 1)}}})
		if i < corpus {
			out = append(out, goldenProgram{p.label + "/panic", "panic", Request{Source: p.src, Chaos: &ChaosSpec{PanicRung: "full"}}})
		}
	}
	return out
}

// TestServeGoldenIdentity pins the /analyze answers for the testdata
// corpus and for generated programs of 20 to 200 statements, each sent
// plain and with a seeded solution mutation; the corpus is also sent
// with an injected rung-1 panic. Where the engine schedules a request
// and where it runs the mutation hook are free to change; the bytes the
// service answers, up to timing, are not.
func TestServeGoldenIdentity(t *testing.T) {
	h := mustNew(t, Config{AllowChaos: true, CacheBytes: -1}).Handler()
	sum := sha256.New()
	rungs := map[string]int{}
	progs := goldenPrograms(t)
	for _, p := range progs {
		resp := hashResponse(t, sum, h, p.label, p.req)
		rungs[p.kind+" "+resp.RungName]++
	}
	t.Logf("hashed %d requests, rungs %v", len(progs), rungs)

	if got := hex.EncodeToString(sum.Sum(nil)); got != serveDigest {
		t.Fatalf("serve response digest %s, want %s", got, serveDigest)
	}
}

// executeDigest is the SHA-256 of every /analyze response hashed by
// TestServeExecuteGolden.
const executeDigest = "0e6b36ac31223f92c0b4093131f9910ac4cb4fbdec690495b3ad621062a28b60"

// TestServeExecuteGolden pins the /analyze answers, annotated text and
// trace summary, to Execute requests for the testdata corpus and a few
// generated programs with jumps out of loops: the program the service
// executes is the one it prints.
func TestServeExecuteGolden(t *testing.T) {
	var files []string
	for _, pat := range []string{"../../testdata/*.f", "../../testdata/kernels/*.f"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	h := mustNew(t, Config{CacheBytes: -1}).Handler()
	sum := sha256.New()
	traced := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		for _, n := range []int64{0, 5} {
			resp := hashResponse(t, sum, h, fmt.Sprintf("%s/n=%d", filepath.Base(file), n), Request{Source: string(src), Execute: true, N: n})
			if resp.Trace != nil {
				traced++
			}
		}
	}
	for i := 0; i < 6; i++ {
		src := progen.GenerateSource(int64(7100+i), progen.Config{Stmts: 60, Arrays: true, PGoto: 0.2})
		resp := hashResponse(t, sum, h, fmt.Sprintf("progen/%d", i), Request{Source: src, Execute: true, N: 6})
		if resp.Trace != nil {
			traced++
		}
	}
	t.Logf("%d responses carry a trace", traced)
	if got := hex.EncodeToString(sum.Sum(nil)); got != executeDigest {
		t.Fatalf("execute response digest %s, want %s", got, executeDigest)
	}
}
