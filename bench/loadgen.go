package main

import (
	"context"
	"sync"
	"time"
)

// openLoop sends requests 0..n-1 on a fixed schedule: request i is due
// at start + i/rate whether or not earlier requests have answered, the
// way independent users arrive. A dispatcher hands each request to a
// pool of senders at its due time; send receives the due time, and
// callers time every request from it, so a stall that delays later
// requests (a full sender pool, a paused server) shows in their
// latency instead of vanishing into a late send.
//
// The returned lag is, per request, how late the dispatcher itself
// handed the request over — the generator's own lateness, which must
// stay small for the schedule to mean anything. Requests not yet
// dispatched when ctx ends are never sent.
func openLoop(ctx context.Context, start time.Time, n int, rate float64, senders int,
	send func(i int, due time.Time)) (lag []time.Duration) {
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
	}
	// Sized to the number of sends: the dispatcher must never block on
	// a busy sender, or its lateness would hide the server's stall.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				send(i, due(i))
			}
		}()
	}
	defer func() {
		close(queue)
		wg.Wait()
	}()

	lag = make([]time.Duration, 0, n)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return lag
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return lag
		}
		lag = append(lag, time.Since(d))
		queue <- i
	}
	return lag
}
