// Package netsim is a simulated message-passing transport that sits
// between the interpreter and the trace. The interpreter's original
// model assumes a perfectly reliable network, so the paper's balance
// criterion C1 — every production started and stopped exactly once per
// path — is never stress-tested. This package injects deterministic,
// seeded faults (drop, delay, duplicate, reorder) into every transfer
// and recovers from them with a classic acknowledgment protocol:
// configurable timeout, bounded exponential backoff with jitter, and a
// per-message retry budget.
//
// Time is measured in interpreter steps, the same unit the machine cost
// model charges compute in, so fault recovery composes with the paper's
// latency-hiding story: a split Send/Recv pair recovers inside its
// overlap window, while an atomic operation must expose every timeout
// as wait.
//
// Graceful degradation: when a split pair exhausts its retry budget the
// transfer is re-issued as an atomic operation at the Recv point — the
// LAZY placement — over a reliable channel, and the run is recorded as
// degraded rather than failed. A FaultReport accounts for every
// injected fault and asserts C1 observability (no permanently unmatched
// halves).
package netsim

import (
	"fmt"
	"math"
	"math/rand"
)

// Protocol defaults, in interpreter steps.
const (
	DefaultTimeout     = 64
	DefaultMaxRetries  = 3
	DefaultBackoffBase = 8
	DefaultBackoffMax  = 256
)

// reorderMax is the largest reorder slip, in steps.
const reorderMax = 8

// FaultConfig parameterizes fault injection and the recovery protocol.
// The zero value describes a perfectly reliable transport; Enabled
// reports whether any fault can actually fire.
type FaultConfig struct {
	// Per-transmission fault probabilities, each in [0, 1].
	Drop    float64 // transmission lost in flight
	Dup     float64 // delivered twice (second copy suppressed)
	Delay   float64 // delivery delayed by 1..DelayMax extra steps
	Reorder float64 // queueing slip of 1..reorderMax extra steps

	// Protocol parameters, in interpreter steps; zero means default.
	Timeout     int64 // ack wait before the sender retransmits
	MaxRetries  int   // retransmission budget per message (-1: no retries)
	BackoffBase int64 // first backoff, doubling per retry
	BackoffMax  int64 // backoff cap
	DelayMax    int64 // largest injected delay (default 2×Timeout)
}

// Enabled reports whether any fault can fire; a disabled config lets
// callers bypass the transport entirely and reproduce reliable traces
// byte for byte.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Delay > 0 || c.Reorder > 0
}

// Default is the moderate-loss profile used by `gnt -mode run -faults`:
// one in five transmissions lost, one in ten duplicated or delayed.
var Default = FaultConfig{Drop: 0.2, Dup: 0.1, Delay: 0.1, Reorder: 0.05}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0 // explicit no-retry mode
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.DelayMax <= 0 {
		c.DelayMax = 2 * c.Timeout
	}
	return c
}

// backoff is the sender's wait beyond the ack timeout before retry i
// (0-based): BackoffBase·2^i capped at BackoffMax, plus jitter drawn
// uniformly from [0, backoff/2] so synchronized retries spread out.
//
// The doubling saturates at BackoffMax before it can overflow int64:
// with a retry budget ≥ 63 and a near-MaxInt64 cap, naive repeated
// doubling wraps negative and the jitter draw panics. The guard clamps
// as soon as another doubling could exceed the cap (b > BackoffMax>>1
// ⇒ 2b > BackoffMax), which also bounds b·2 away from overflow for any
// positive cap.
func (c FaultConfig) backoff(retry int, rng *rand.Rand) int64 {
	b := c.BackoffBase
	for i := 0; i < retry; i++ {
		if b > c.BackoffMax>>1 {
			b = c.BackoffMax
			break
		}
		b <<= 1
	}
	if b > c.BackoffMax {
		b = c.BackoffMax
	}
	j := rng.Int63n(b/2 + 1)
	if j > math.MaxInt64-b { // saturate the jitter add at huge caps
		j = math.MaxInt64 - b
	}
	return b + j
}

// Delivery is the receiver-visible outcome of one transfer.
type Delivery struct {
	Arrival    int64 // step the payload became available (≥ send step + 1)
	Retries    int   // retransmissions the sender performed
	Suppressed int   // duplicate copies discarded at the receiver
	Stall      int64 // sender-side timeout+backoff wait, in steps
	Degraded   bool  // budget exhausted: re-issued atomically, reliable channel
	Matched    bool  // false: Recv had no pending Send (C1 violation)
}

// FaultReport aggregates what the transport injected and how the
// protocol absorbed it over one execution.
type FaultReport struct {
	// Transfers counts messages routed through the transport (split
	// pairs count once, at the Send; atomics once).
	Transfers int64
	// Injected faults by kind.
	Drops, Dups, Delays, Reorders int64
	// Retransmits counts retransmissions, whether triggered by a real
	// drop or spuriously by a delivery delayed past the ack timeout.
	Retransmits int64
	// Suppressed counts duplicate copies discarded at the receiver:
	// network duplicates, late originals, and spurious retransmissions.
	Suppressed int64
	// Recovered counts transfers delivered after at least one
	// retransmission.
	Recovered int64
	// Degraded counts split transfers whose budget ran out and that
	// were re-issued atomically at the Recv point (the LAZY placement).
	Degraded int64
	// Escalated counts atomic transfers whose budget ran out and that
	// completed over the reliable channel.
	Escalated int64
	// UnmatchedSends/Recvs count halves with no partner at end of run —
	// always zero for a balanced (C1) placement, faults or not.
	UnmatchedSends, UnmatchedRecvs int64
	// StallSteps totals sender-side timeout+backoff waiting.
	StallSteps int64
}

// Counters flattens the report into named counters for an obs.Report
// fault section; zero-valued counters are omitted.
func (r FaultReport) Counters() map[string]int64 {
	all := map[string]int64{
		"transfers": r.Transfers, "drops": r.Drops, "dups": r.Dups,
		"delays": r.Delays, "reorders": r.Reorders,
		"retransmits": r.Retransmits, "suppressed": r.Suppressed,
		"recovered": r.Recovered, "degraded": r.Degraded,
		"escalated": r.Escalated, "stall_steps": r.StallSteps,
		"unmatched_sends": r.UnmatchedSends, "unmatched_recvs": r.UnmatchedRecvs,
	}
	out := map[string]int64{}
	for k, v := range all {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// Accounted reports whether every injected fault is explained by a
// recovery action: each dropped transmission either triggered a
// retransmission or ended in degradation/escalation, every duplicated
// copy was suppressed, and no half is permanently unmatched.
func (r FaultReport) Accounted() bool {
	return r.Dups <= r.Suppressed &&
		r.Drops <= r.Retransmits+r.Degraded+r.Escalated &&
		r.UnmatchedSends == 0 && r.UnmatchedRecvs == 0
}

func (r FaultReport) String() string {
	return fmt.Sprintf(
		"transfers=%d faults[drop=%d dup=%d delay=%d reorder=%d] retransmits=%d suppressed=%d recovered=%d degraded=%d escalated=%d stall=%d unmatched=%d/%d",
		r.Transfers, r.Drops, r.Dups, r.Delays, r.Reorders,
		r.Retransmits, r.Suppressed, r.Recovered, r.Degraded, r.Escalated,
		r.StallSteps, r.UnmatchedSends, r.UnmatchedRecvs)
}

// Transport is one execution's view of the unreliable network. It is
// deterministic: the same (FaultConfig, seed) and the same call
// sequence produce the same deliveries and report. A Transport is not
// safe for concurrent use; each execution owns its own.
type Transport struct {
	cfg     FaultConfig
	rng     *rand.Rand
	pending map[pairKey][]*message
	rep     FaultReport
}

type pairKey struct{ op, args string }

type message struct {
	elems int64
	res   resolution
}

// resolution is the precomputed fate of one transfer: because faults
// are seeded, the whole attempt schedule is resolved at Send time and
// merely observed at Recv time.
type resolution struct {
	arrival int64 // earliest copy arrival; -1 when every attempt dropped
	copies  int   // copies that reach the receiver (first delivers, rest suppressed)
	retries int   // retransmissions performed
	stall   int64 // sender-side timeout+backoff waiting
	failed  bool  // retry budget exhausted with nothing delivered
}

// New creates a transport. The seed should be independent of any seed
// driving program control flow so that enabling faults never perturbs
// the execution being measured.
func New(cfg FaultConfig, seed int64) *Transport {
	return &Transport{
		cfg:     cfg.withDefaults(),
		rng:     rand.New(rand.NewSource(seed)),
		pending: map[pairKey][]*message{},
	}
}

// resolve simulates the acknowledgment protocol for one message posted
// at the given step. Each attempt is independently dropped, delayed,
// reordered, or duplicated; the sender retransmits after Timeout plus
// backoff until an ack arrives in time or the budget is spent. A copy
// delayed past the timeout still arrives — the retransmission it
// provokes is spurious and its copy is suppressed at the receiver.
func (t *Transport) resolve(step int64) resolution {
	c := t.cfg
	r := resolution{arrival: -1}
	at := step
	for attempt := 0; ; attempt++ {
		acked := false
		if t.rng.Float64() < c.Drop {
			t.rep.Drops++
		} else {
			flight := int64(1)
			if t.rng.Float64() < c.Delay {
				flight += 1 + t.rng.Int63n(c.DelayMax)
				t.rep.Delays++
			}
			if t.rng.Float64() < c.Reorder {
				flight += 1 + t.rng.Int63n(reorderMax)
				t.rep.Reorders++
			}
			arr := at + flight
			if r.arrival < 0 || arr < r.arrival {
				r.arrival = arr
			}
			r.copies++
			if t.rng.Float64() < c.Dup {
				t.rep.Dups++
				r.copies++
			}
			acked = flight <= c.Timeout
		}
		if acked || attempt >= c.MaxRetries {
			if !acked && r.arrival < 0 {
				// budget spent, nothing in flight: the sender waits out
				// one last timeout before declaring the transfer dead
				r.stall += c.Timeout
				r.failed = true
			}
			break
		}
		back := c.backoff(attempt, t.rng)
		r.stall += c.Timeout + back
		at += c.Timeout + back
		r.retries++
		t.rep.Retransmits++
	}
	t.rep.StallSteps += r.stall
	return r
}

// Send posts the Send half of a split transfer. Its delivery schedule
// is resolved immediately (the fault stream is seeded); the matching
// Recv observes the outcome.
func (t *Transport) Send(op, args string, elems, step int64) {
	t.rep.Transfers++
	k := pairKey{op, args}
	t.pending[k] = append(t.pending[k], &message{elems: elems, res: t.resolve(step)})
}

// Recv completes the Recv half of a split transfer, matching the most
// recent pending Send of the same operation and argument list (the same
// LIFO discipline the trace matcher uses). A Recv with no pending Send
// is reported as unmatched; a Recv whose Send exhausted its budget is
// degraded: the transfer is re-issued atomically here, over the
// reliable channel, and always completes.
func (t *Transport) Recv(op, args string, elems, step int64) Delivery {
	k := pairKey{op, args}
	q := t.pending[k]
	if len(q) == 0 {
		t.rep.UnmatchedRecvs++
		return Delivery{}
	}
	m := q[len(q)-1]
	t.pending[k] = q[:len(q)-1]
	d := Delivery{
		Retries: m.res.retries,
		Stall:   m.res.stall,
		Matched: true,
	}
	if m.res.failed {
		t.rep.Degraded++
		d.Degraded = true
		return d
	}
	d.Arrival = m.res.arrival
	d.Suppressed = m.res.copies - 1
	t.rep.Suppressed += int64(d.Suppressed)
	if d.Retries > 0 {
		t.rep.Recovered++
	}
	return d
}

// Atomic performs a blocking transfer: the operation does not return
// until the payload is delivered, so every retransmission timeout is
// exposed at this point. If the budget runs out the runtime escalates
// to the reliable channel and the transfer still completes.
func (t *Transport) Atomic(op, args string, elems, step int64) Delivery {
	t.rep.Transfers++
	res := t.resolve(step)
	d := Delivery{
		Retries: res.retries,
		Stall:   res.stall,
		Matched: true,
	}
	if res.failed {
		t.rep.Escalated++
		d.Degraded = true
		return d
	}
	d.Arrival = res.arrival
	d.Suppressed = res.copies - 1
	t.rep.Suppressed += int64(d.Suppressed)
	if d.Retries > 0 {
		t.rep.Recovered++
	}
	return d
}

// Finish closes the execution: any Send still pending has no matching
// Recv and is reported as unmatched (a balanced placement has none).
func (t *Transport) Finish() {
	for _, q := range t.pending {
		t.rep.UnmatchedSends += int64(len(q))
	}
}

// Report returns the accumulated fault report.
func (t *Transport) Report() FaultReport { return t.rep }
