//go:build !race

package bpwrapper_test

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random quarter of the objects put back, so a recycling
// path allocates by design and the allocation guards do not apply.
const raceEnabled = false
