package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"givetake/internal/journal"
	"givetake/internal/progen"
	"givetake/internal/telemetry"
)

// TestCachedMetaMatchesBody: the meta compute stores with each entry,
// built from the *Response, is exactly the meta decoded from the
// rendered body, the way replay recovers it, over the serve golden
// corpus, a rung-3 answer and an error answer.
func TestCachedMetaMatchesBody(t *testing.T) {
	srv := mustNew(t, Config{AllowChaos: true, CacheBytes: -1})
	reqs := goldenPrograms(t)
	reqs = append(reqs,
		goldenProgram{"atomic", "degraded", Request{Source: goodSrc, Chaos: &ChaosSpec{MutateSeed: 5, PanicRung: "no-hoist"}}},
		goldenProgram{"parse-error", "error", Request{Source: "do i = 1,\n"}})
	rungs := map[string]int{}
	for _, p := range reqs {
		release, err := srv.Engine().Admit(context.Background(), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := srv.analyzeCached(context.Background(), &p.req)
		release()
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		stored, ok := c.Meta.(*responseMeta)
		if !ok {
			t.Fatalf("%s: cache value carries meta %T, want *responseMeta", p.label, c.Meta)
		}
		if decoded := decodeMeta(c.Body); !reflect.DeepEqual(decoded, c.Meta) {
			t.Fatalf("%s: stored meta %+v, decoded from the body %+v", p.label, stored, decoded)
		}
		rungs[p.kind+" "+stored.rung+" "+stored.code]++
	}
	if rungs["degraded atomic "] != 1 || rungs["error  parse-error"] != 1 {
		t.Fatalf("extra answers did not degrade as intended: %v", rungs)
	}
	t.Logf("compared %d answers: %v", len(reqs), rungs)
}

// tracedPost posts req to url's /analyze under the given trace ID and
// returns the response headers.
func tracedPost(t *testing.T, url string, req Request, id string) http.Header {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	hr.Header.Set(telemetry.TraceHeader, id)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Error(err)
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	return resp.Header
}

// TestCachedMetaAcrossSources: a miss, a hit, a single-flight follower
// and a hit on a node restarted from the journal answer with the same
// X-Gnt-Rung and leave the same rung, code and ladder attempts in the
// trace ring; the hit and the replayed hit record no spans.
func TestCachedMetaAcrossSources(t *testing.T) {
	mb := journal.NewMemBackend()
	srv1 := mustNew(t, Config{Workers: 8, JournalBackend: mb})
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	waitReady(t, ts1.URL)

	// A herd of identical requests for a program that takes a while to
	// analyze yields one miss and, almost always, followers; another
	// program is tried in the rare run where every request but the
	// leader arrived after it stored.
	type served struct {
		id   string
		hdr  http.Header
		disp string
	}
	var req Request
	var herd []served
	for try := 0; ; try++ {
		req = Request{Source: progen.GenerateSource(int64(9100+try), progen.Config{Stmts: 400, Arrays: true})}
		herd = make([]served, 8)
		var wg sync.WaitGroup
		for i := range herd {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("meta-%d-%d", try, i)
				hdr := tracedPost(t, ts1.URL, req, id)
				herd[i] = served{id, hdr, hdr.Get("X-Gnt-Cache")}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if slices.ContainsFunc(herd, func(s served) bool { return s.disp == "follow" }) {
			break
		}
		if try == 4 {
			t.Fatal("no single-flight follower in 5 herds")
		}
	}
	hitHdr := tracedPost(t, ts1.URL, req, "meta-hit")
	herd = append(herd, served{"meta-hit", hitHdr, hitHdr.Get("X-Gnt-Cache")})

	seen := map[string]int{}
	traces := make([]telemetry.RequestTrace, len(herd))
	var miss telemetry.RequestTrace
	var missRung string
	for i, s := range herd {
		seen[s.disp]++
		traces[i] = findTrace(t, ts1.URL, s.id)
		if s.disp == "miss" {
			miss, missRung = traces[i], s.hdr.Get("X-Gnt-Rung")
		}
	}
	if seen["miss"] != 1 || seen["follow"] == 0 || herd[len(herd)-1].disp != "hit" {
		t.Fatalf("dispositions %v (last %q), want one miss, followers and a final hit", seen, herd[len(herd)-1].disp)
	}
	t.Logf("dispositions %v", seen)
	if missRung != "full" || miss.Rung != "full" || len(miss.Attempts) != 1 || len(miss.Spans) == 0 {
		t.Fatalf("miss: X-Gnt-Rung %q, trace %+v; want full, one attempt, spans", missRung, miss)
	}

	// a graceful shutdown seals the journal; the next node warms from it
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := mustNew(t, Config{JournalBackend: mb})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	waitReady(t, ts2.URL)
	replayHdr := tracedPost(t, ts2.URL, req, "meta-replayed")
	if d := replayHdr.Get("X-Gnt-Cache"); d != "hit" {
		t.Fatalf("restarted node served %q, want hit", d)
	}
	herd = append(herd, served{"meta-replayed", replayHdr, "replayed hit"})
	traces = append(traces, findTrace(t, ts2.URL, "meta-replayed"))

	for i, s := range herd {
		if s.disp == "miss" {
			continue
		}
		tr := traces[i]
		if got := s.hdr.Get("X-Gnt-Rung"); got != missRung {
			t.Errorf("%s %s: X-Gnt-Rung %q, miss had %q", s.disp, s.id, got, missRung)
		}
		if tr.Rung != miss.Rung || tr.Code != miss.Code || !reflect.DeepEqual(tr.Attempts, miss.Attempts) {
			t.Errorf("%s %s: trace rung %q code %q attempts %+v; miss had %q %q %+v",
				s.disp, s.id, tr.Rung, tr.Code, tr.Attempts, miss.Rung, miss.Code, miss.Attempts)
		}
		if s.disp != "follow" && len(tr.Spans) != 0 {
			t.Errorf("%s %s recorded %d spans, want 0", s.disp, s.id, len(tr.Spans))
		}
	}
}

// TestAnalyzeHitAllocs bounds the allocations of one /analyze cache hit
// served through Handler, request and recorder included. The hit reads
// its rung and ladder from the meta stored with the entry and derives
// its key without fmt: 53 allocations on go1.24. Decoding the stored
// body for its meta and formatting the key with fmt, as hits once did,
// took 76.
func TestAnalyzeHitAllocs(t *testing.T) {
	h := mustNew(t, Config{}).Handler()
	body, _ := json.Marshal(Request{Source: goodSrc})
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		return w
	}
	if w := post(); w.Code != http.StatusOK || w.Header().Get("X-Gnt-Cache") != "miss" {
		t.Fatalf("fill: status %d, cache %q", w.Code, w.Header().Get("X-Gnt-Cache"))
	}
	if w := post(); w.Header().Get("X-Gnt-Cache") != "hit" || w.Header().Get("X-Gnt-Rung") != "full" {
		t.Fatalf("second request: cache %q rung %q, want a full-rung hit", w.Header().Get("X-Gnt-Cache"), w.Header().Get("X-Gnt-Rung"))
	}
	allocs := testing.AllocsPerRun(50, func() { post() })
	const bound = 60
	t.Logf("allocs per /analyze hit: %.0f (bound %d)", allocs, bound)
	if allocs > bound {
		t.Fatalf("an /analyze hit allocates %.0f times, bound %d", allocs, bound)
	}
}
