// Package hot is a golden fixture for the noalloc analyzer: annotated
// functions mixing the legal zero-allocation idioms with one seeded
// violation per allocating construct.
package hot

import "fmt"

// Encode is the canonical pooled fast path: the append+make extension
// and in-place writes are all free.
//
//cad3:noalloc
func Encode(dst []byte, v uint64) []byte {
	dst = append(dst, make([]byte, 8)...)
	dst[len(dst)-1] = byte(v)
	return dst
}

// Bad collects the allocating constructs.
//
//cad3:noalloc
func Bad(dst []byte, v uint64) []byte {
	buf := make([]byte, 8)     // want "calls make"
	s := fmt.Sprintf("x%d", v) // want "calls fmt.Sprintf"
	_ = s
	pairs := map[uint64]uint64{v: v} // want "map literal"
	_ = pairs
	extra := []byte{1, 2} // want "slice literal"
	dst = append(dst, extra...)
	return append(dst, buf...)
}

// Counter returns a closure over its accumulator: the environment
// allocates on every call.
//
//cad3:noalloc
func Counter() func() uint64 {
	total := uint64(0)
	return func() uint64 { // want "closure capturing total"
		total++
		return total
	}
}

// Concat allocates the joined string.
//
//cad3:noalloc
func Concat(a, b string) string {
	return a + b // want "concatenates strings"
}

// Bytes copies the string into a fresh slice.
//
//cad3:noalloc
func Bytes(s string) []byte {
	return []byte(s) // want "converts between string"
}

// Box passes a concrete int where an interface is expected.
//
//cad3:noalloc
func Box(v int) {
	sink(v) // want "boxes on the heap"
}

func sink(x interface{}) { _ = x }

// point is a struct: passing it as an interface boxes it.
type point struct{ x, y int }

// hook is a func type, stored in an interface word as it is.
type hook func()

// NoBox passes pointer-shaped values where an interface is expected: a
// pointer, a func, a map and a chan are stored in the interface word
// directly, so none allocates.
//
//cad3:noalloc
func NoBox(p *point, h hook, m map[int]int, ch chan int) {
	sink(p)
	sink(h)
	sink(m)
	sink(ch)
}

// BoxStruct passes a struct where an interface is expected.
//
//cad3:noalloc
func BoxStruct(p point) {
	sink(p) // want "boxes on the heap"
}
