//go:build race

package rsu

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is given on purpose: allocation pins do not hold there.
const raceEnabled = true
