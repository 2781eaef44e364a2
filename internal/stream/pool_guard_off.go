//go:build !cad3_checks

package stream

// Release builds compile the pool guard hooks to no-ops that inline to
// nothing, keeping the recycle fast path allocation- and branch-free.
// The cad3_checks debug build (pool_guard.go) replaces them with a
// pointer-keyed double-recycle detector: `go test -tags cad3_checks`.

// PoolGuard reports whether this is the cad3_checks build. The guard
// records a call chain per recycle, so tests that count allocations on a
// path through the pools skip their assertion when it is set.
const PoolGuard = false

func guardAdmit([]byte)   {}
func guardRetract([]byte) {}
func guardLease([]byte)   {}

// guardLend and guardReclaim bracket a PollEach callback; see pool_guard.go.
func guardLend(m Message) Message { return m }
func guardReclaim(Message)        {}
