// Command app is the reach fixture's only binary: everything the
// analyzer must count as reachable starts here.
package main

import "golden/lib"

func main() {
	lib.Used()
	var s lib.Shape = lib.NewSquare()
	println(s.Area())
}
