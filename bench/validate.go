package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	gt "givetake"
	"givetake/internal/serve"
)

// verdict counts programs attempted and failed in one run and keeps the
// first few failure reasons. A failure is a transport error, a non-200
// status, ok=false, a rung other than 1, verifier errors, or an answer
// that differs from the reference.
type verdict struct {
	mu        sync.Mutex // guards attempted, failed, reasons
	attempted int
	failed    int
	reasons   []string
}

const keepReasons = 5

func (v *verdict) attempt(n int) {
	v.mu.Lock()
	v.attempted += n
	v.mu.Unlock()
}

func (v *verdict) fail(format string, args ...any) {
	v.mu.Lock()
	v.failed++
	if len(v.reasons) < keepReasons {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

func (v *verdict) counts() (attempted, failed int, reasons []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.attempted, v.failed, append([]string(nil), v.reasons...)
}

// checkAnswer validates one served analysis: HTTP 200, ok, rung 1 (the
// full placement), and a clean verdict from the in-server verifier. It
// returns the decoded response.
func checkAnswer(status int, body []byte) (*serve.Response, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	switch {
	case !r.OK:
		return nil, fmt.Errorf("ok=false: %s %s", r.Code, r.Error)
	case r.Rung != serve.RungFull:
		return nil, fmt.Errorf("rung %d, want %d", r.Rung, serve.RungFull)
	case r.Check == nil:
		return nil, errors.New("no verifier summary")
	case r.Check.Errors > 0:
		return nil, fmt.Errorf("verifier reported %d errors", r.Check.Errors)
	}
	return &r, nil
}

// sampled picks a seeded 1-in-20 sample of program indices: the answers
// compared byte for byte against the sequential library path.
func sampled(seed int64, i int) bool {
	return mix(uint64(seed)^uint64(i)*0x9e3779b97f4a7c15)%20 == 0
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// reference is the sequential library path the served answers must
// equal: parse, analyze both placement problems, statically verify,
// render with the split (EAGER/LAZY) options the full rung uses.
func reference(ctx context.Context, src string) (string, error) {
	p, err := gt.Parse(src)
	if err != nil {
		return "", err
	}
	cg, err := gt.GenerateCommCtx(ctx, p, nil)
	if err != nil {
		return "", err
	}
	res, err := cg.CheckPlacementCtx(ctx, nil)
	if err != nil {
		return "", err
	}
	if !res.Ok() {
		return "", fmt.Errorf("reference placement fails verification: %s", res.Errors()[0])
	}
	return cg.AnnotatedSource(gt.SplitComm), nil
}

// answer is one served annotated program kept for the reference check.
type answer struct {
	label     string // which request, for the failure message
	src       string
	annotated string
}

// checkReferences compares every kept answer with the reference path.
// It runs after the timed window, so its cost is not measured.
func checkReferences(ctx context.Context, answers []answer, v *verdict) error {
	for _, a := range answers {
		want, err := reference(ctx, a.src)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			v.fail("%s: reference: %v", a.label, err)
			continue
		}
		if a.annotated != want {
			v.fail("%s: annotated program differs from the sequential library path", a.label)
		}
	}
	return nil
}
