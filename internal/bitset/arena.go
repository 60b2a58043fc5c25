package bitset

// Arena carves Slabs out of one reusable word buffer. A dataflow solve
// allocates a fixed number of per-node slabs whose total size depends
// only on (nodes, universe); leasing an Arena per solve and calling
// Reset between solves makes the steady-state allocation of a
// long-running analysis service flat — the buffer is reused, only
// growing when a larger program arrives.
//
// An Arena is not safe for concurrent use; give each concurrent solve
// its own. Every Slab carved from an Arena aliases its buffer: after
// Reset, all previously returned Slabs are invalid and must no longer
// be referenced (the engine enforces this with an explicit Release on
// its results).
type Arena struct {
	buf []uint64
	off int
	// spill counts words served by fresh allocations because buf was
	// exhausted this cycle; Reset grows buf by it so the next cycle of
	// the same shape fits entirely.
	spill int
}

// NewSlab is NewSlab backed by the arena: count empty rows over an
// n-item universe, contiguous in the arena's buffer. A nil arena falls
// back to a plain allocation.
func (a *Arena) NewSlab(count, n int) Slab {
	if a == nil {
		return NewSlab(count, n)
	}
	w := slabWords(count, n)
	need := count * w
	var backing []uint64
	if a.off+need <= len(a.buf) {
		backing = a.buf[a.off : a.off+need : a.off+need]
		clear(backing) // previous cycles left stale bits behind
		a.off += need
	} else {
		backing = make([]uint64, need)
		a.spill += need
	}
	return Slab{rows: count, n: n, w: w, words: backing}
}

// Reset recycles the arena for the next solve, growing the buffer when
// the last cycle spilled past it. All Slabs carved since the previous
// Reset become invalid.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.spill > 0 {
		a.buf = make([]uint64, len(a.buf)+a.spill)
		a.spill = 0
	}
	a.off = 0
}

// Footprint reports the arena's current buffer size in words, for
// pool-sizing diagnostics.
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return len(a.buf) + a.spill
}
