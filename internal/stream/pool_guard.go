//go:build cad3_checks

package stream

// Debug-build pool guard. The static analyzer (cad3-vet's poolsafety)
// proves the single-function cases at compile time but cannot follow a
// buffer across goroutines or through stored aliases; this runtime
// detector closes that gap. Every buffer admitted to a free list is
// tracked by its backing-array pointer; admitting it again before a
// lease panics with both recycle call sites.
//
// The guard only tracks buffers that are actually resident in a pool:
// a buffer the full ring dropped to the GC is retracted, because its
// address may be legitimately reused by a future allocation. Detection
// is therefore best-effort — exactly like the kernel's slab poisoning,
// it catches the overwhelmingly common case without false positives.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"unsafe"
)

const PoolGuard = true // see pool_guard_off.go

var (
	guardMu sync.Mutex
	// freeSites maps the backing array of every pool-resident buffer to
	// the call chain that recycled it.
	freeSites = map[unsafe.Pointer]string{}
)

// recycleSite renders the caller chain above the guard hook.
func recycleSite() string {
	pc := make([]uintptr, 4)
	n := runtime.Callers(3, pc) // skip Callers, recycleSite, and the hook
	frames := runtime.CallersFrames(pc[:n])
	var parts []string
	for {
		f, more := frames.Next()
		parts = append(parts, fmt.Sprintf("%s:%d", f.File, f.Line))
		if !more || len(parts) == 4 {
			break
		}
	}
	return strings.Join(parts, " <- ")
}

// guardAdmit records a buffer entering a free list, panicking if it is
// already resident — a double recycle.
func guardAdmit(b []byte) {
	if cap(b) == 0 {
		return
	}
	p := unsafe.Pointer(unsafe.SliceData(b[:1]))
	site := recycleSite()
	guardMu.Lock()
	prev, dead := freeSites[p]
	if !dead {
		freeSites[p] = site
	}
	guardMu.Unlock()
	if dead {
		panic(fmt.Sprintf("stream: double recycle of pooled buffer %p at %s (already recycled at %s)", p, site, prev))
	}
}

// guardRetract forgets a buffer the full ring dropped to the GC.
func guardRetract(b []byte) {
	if cap(b) == 0 {
		return
	}
	guardMu.Lock()
	delete(freeSites, unsafe.Pointer(unsafe.SliceData(b[:1])))
	guardMu.Unlock()
}

// guardLease forgets a buffer leaving the pool for a new owner.
func guardLease(b []byte) {
	guardRetract(b)
}

// lentPoison overwrites a lent message once its PollEach callback returns.
const lentPoison = 0xDB

// guardLend stands in for a message PollEach is about to lend: the callback
// gets scratch copies of Key and Value, which guardReclaim poisons when it
// returns. A decoder that kept a view — which in a release build would
// alias a log chunk or a response frame that later traffic overwrites —
// then reads 0xDB instead of plausible bytes.
func guardLend(m Message) Message {
	m.Key, m.Value = scratchCopy(m.Key), scratchCopy(m.Value)
	return m
}

// guardReclaim poisons the scratch copies guardLend made.
func guardReclaim(m Message) {
	for i := range m.Key {
		m.Key[i] = lentPoison
	}
	for i := range m.Value {
		m.Value[i] = lentPoison
	}
}

// scratchCopy copies b outside the pools, nil staying nil.
func scratchCopy(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}
