package core

import "sort"

// stateRanges are the non-learnable segments of a model vector
// (SMAConfig.StateRanges) in walking order: sorted, overlapping and
// touching ranges merged, empty ones dropped, clipped to the model size.
// The optimiser walks a model as alternating plain and state segments, so
// the long plain stretches between the 16–64-element batch-norm ranges run
// the branch-free kernels and no per-element mask is consulted.
type stateRanges [][2]int

func newStateRanges(ranges [][2]int, n int) stateRanges {
	var out stateRanges
	for _, rg := range ranges {
		if rg[1] > n {
			rg[1] = n
		}
		if rg[0] < rg[1] {
			out = append(out, rg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	merged := out[:0]
	for _, rg := range out {
		if last := len(merged) - 1; last >= 0 && rg[0] <= merged[last][1] {
			if rg[1] > merged[last][1] {
				merged[last][1] = rg[1]
			}
			continue
		}
		merged = append(merged, rg)
	}
	return merged
}

// segments cuts [lo, hi) at the state-range boundaries. Each call to next
// yields the following segment and whether it is state; ok is false once
// the range is exhausted. The cursor is a value, so concurrent walks of
// disjoint index ranges share nothing.
type segments struct {
	state   stateRanges
	i       int // first state range ending after pos
	pos, hi int
}

func (st stateRanges) segments(lo, hi int) segments {
	i := 0
	for i < len(st) && st[i][1] <= lo {
		i++
	}
	return segments{state: st, i: i, pos: lo, hi: hi}
}

func (s *segments) next() (lo, hi int, state, ok bool) {
	if s.pos >= s.hi {
		return 0, 0, false, false
	}
	lo, hi = s.pos, s.hi
	if s.i < len(s.state) {
		switch rg := s.state[s.i]; {
		case rg[0] <= lo:
			state = true
			if rg[1] < hi {
				hi = rg[1]
			}
			s.i++
		case rg[0] < hi:
			hi = rg[0]
		}
	}
	s.pos = hi
	return lo, hi, state, true
}
