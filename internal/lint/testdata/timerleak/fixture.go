// Package fixture reproduces the admission-gate timer leak: a
// time.After inside a hot loop parks one runtime timer per iteration,
// none of them collectable until they fire. Under load, every canceled
// request left one behind.
package fixture

import (
	"context"
	"time"
)

// admissionWait is the historical bug shape.
func admissionWait(ctx context.Context, work <-chan struct{}) error {
	for {
		select {
		case <-work:
			return nil
		case <-time.After(50 * time.Millisecond): // want `time\.After inside a loop`
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// admissionWaitFixed stops its timer on every exit path; not flagged.
func admissionWaitFixed(ctx context.Context, work <-chan struct{}) error {
	t := time.NewTimer(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-work:
			return nil
		case <-t.C:
			t.Reset(50 * time.Millisecond)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// perItem shows the same leak under a range loop.
func perItem(items []int) {
	for range items {
		<-time.After(time.Microsecond) // want `time\.After inside a loop`
	}
}

// singleShot has no enclosing loop; one fired timer is not a leak.
func singleShot() {
	<-time.After(time.Millisecond)
}

// pollUntil's loop condition calls the method time.Time.After, which
// starts no timer; not flagged.
func pollUntil(deadline time.Time, done func() bool) {
	for !time.Now().After(deadline) && !done() {
		time.Sleep(time.Millisecond)
	}
}

// suppressed documents the escape hatch: a deliberate use carries a
// directive with a reason and produces no finding.
func suppressed(n int) {
	for i := 0; i < n; i++ {
		//lint:ignore timerleak fixture exercises the suppression path
		<-time.After(time.Microsecond)
	}
}
