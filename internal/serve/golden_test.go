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

// TestServeGoldenIdentity pins the /analyze answers for the testdata
// corpus and for generated programs of 20 to 200 statements, each sent
// plain and with a seeded solution mutation; the corpus is also sent
// with an injected rung-1 panic. Where the engine schedules a request
// and where it runs the mutation hook are free to change; the bytes the
// service answers, up to timing, are not.
func TestServeGoldenIdentity(t *testing.T) {
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

	h := mustNew(t, Config{AllowChaos: true, CacheBytes: -1}).Handler()
	sum := sha256.New()
	rungs := map[string]int{}
	for i, p := range progs {
		resp := hashResponse(t, sum, h, p.label, Request{Source: p.src})
		rungs["plain "+resp.RungName]++
		resp = hashResponse(t, sum, h, p.label+"/mutate", Request{Source: p.src, Chaos: &ChaosSpec{MutateSeed: int64(i + 1)}})
		rungs["mutate "+resp.RungName]++
		if i < corpus {
			resp = hashResponse(t, sum, h, p.label+"/panic", Request{Source: p.src, Chaos: &ChaosSpec{PanicRung: "full"}})
			rungs["panic "+resp.RungName]++
		}
	}
	t.Logf("hashed %d programs, rungs %v", len(progs), rungs)

	if got := hex.EncodeToString(sum.Sum(nil)); got != serveDigest {
		t.Fatalf("serve response digest %s, want %s", got, serveDigest)
	}
}
