// Package lib is a golden fixture for the reach analyzer: each way a
// function can be reached from main, and each way it can fail to be.
package lib

import "errors"

// Used is called from main.
func Used() {
	run(viaValue)
	_ = errors.Is(errNotFound, notFound{})
	_ = Map([]int{1}, double)
	_ = Box[int]{v: 1}.Get()
	_ = table
}

// Dead is called by nothing.
func Dead() {} // want "Dead is not reachable from any main package"

// Kept is called by nothing, but an allow keeps it.
func Kept() {} //cad3:allow reach TestKept needs it

// table is a package-level var: its initializer is a root.
var table = initTable()

// initTable is reached only through table's initializer.
func initTable() []int { return []int{1} }

func run(f func()) { f() }

func viaValue() {} // reached only as a func value

// Map is generic; the call in Used names it directly.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

func double(x int) int { return 2 * x }

// Box is a generic type.
type Box[T any] struct{ v T }

// Get is called on Box[int]: the use names the instantiated method, and
// Origin maps it back to this declaration.
func (b Box[T]) Get() T { return b.v }

// Shape is called through an interface in main.
type Shape interface{ Area() float64 }

type Square struct{ side float64 }

func NewSquare() Square { return Square{side: 1} }

// Area is reached only through the interface call in main.
func (s Square) Area() float64 { return s.side * s.side }

// Circle is a Shape nothing constructs: its method is dead.
type Circle struct{ r float64 }

func (c *Circle) Area() float64 { return 3 * c.r * c.r } // want "\(\*golden/lib\.Circle\)\.Area is not reachable"

type notFound struct{}

var errNotFound = notFound{}

func (notFound) Error() string { return "not found" }

// Is is reached only through errors.Is, which names no interface.
func (notFound) Is(target error) bool { return target == errNotFound }
