//go:build race

package nn

// raceEnabled reports whether the race detector instruments this build; its
// shadow allocations would fail the allocation assertions, so those tests
// skip themselves (CI runs them in a separate non-race step).
const raceEnabled = true
