//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build; its
// shadow allocations would fail the allocation pin, so that test skips itself
// (CI runs it in a separate non-race step).
const raceEnabled = true
