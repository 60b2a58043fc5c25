package bitset

// Arena is an empty placeholder; every solve allocates its slabs with
// NewSlab and each result belongs to the garbage collector.
//
// Deprecated: always pass nil. Arena stays only until the benchmark
// harness (bench/trace.go) drops the argument it passes to
// comm's SolveRead and SolveWrite.
type Arena struct{}
