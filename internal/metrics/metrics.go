package metrics

// EpochPoint is one epoch's outcome: the (virtual or real) time at which
// the epoch completed and the test accuracy measured there.
type EpochPoint struct {
	Epoch   int
	TimeSec float64
	TestAcc float64 // in [0, 1]
	Loss    float64
}

// TTAWindow is the smoothing window of the TTA metric (§5.1: "the median
// test accuracy of the last 5 epochs").
const TTAWindow = 5

// TTA returns the time at which the median test accuracy over the trailing
// TTAWindow epochs first reaches target, per the paper's TTA(x) definition:
// the time stamp of the epoch EpochsToAccuracy counts to. ok is false if
// the target was never reached.
func TTA(series []EpochPoint, target float64) (timeSec float64, ok bool) {
	e, ok := EpochsToAccuracy(series, target)
	if !ok {
		return 0, false
	}
	return series[e-1].TimeSec, true
}

// EpochsToAccuracy returns the 1-based epoch count needed for the median-
// windowed test accuracy to reach target (the statistical-efficiency metric
// of Figures 3, 12b, 13b). Early epochs use the shorter prefix window. ok
// is false if never reached.
func EpochsToAccuracy(series []EpochPoint, target float64) (epochs int, ok bool) {
	for i := range series {
		lo := i - TTAWindow + 1
		if lo < 0 {
			lo = 0
		}
		accs := make([]float64, 0, TTAWindow)
		for _, p := range series[lo : i+1] {
			accs = append(accs, p.TestAcc)
		}
		if Median(accs) >= target {
			return i + 1, true
		}
	}
	return 0, false
}

// BestAccuracy returns the highest test accuracy in the series.
func BestAccuracy(series []EpochPoint) float64 {
	best := 0.0
	for _, p := range series {
		if p.TestAcc > best {
			best = p.TestAcc
		}
	}
	return best
}
