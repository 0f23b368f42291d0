package metrics

import "sort"

// WallPoint records one epoch of real (wall-clock) execution by the task
// runtime: its measured duration and training throughput. It complements
// EpochPoint, whose time axis is the simulator's; the runtime produces both
// so statistical series stay comparable across schedulers while hardware
// efficiency is measured for real.
type WallPoint struct {
	Epoch        int
	Sec          float64
	ImagesPerSec float64
}

// Median returns the median of s (zero for an empty slice). The input is
// not modified.
func Median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func epochSecs(pts []WallPoint) []float64 {
	s := make([]float64, len(pts))
	for i, p := range pts {
		s[i] = p.Sec
	}
	return s
}

// MedianEpochSec returns the median epoch duration of the series — the
// robust per-epoch cost estimator the scheduler benchmarks report (the
// median discards warm-up and scheduler-noise outliers). Zero for an empty
// series.
func MedianEpochSec(pts []WallPoint) float64 { return Median(epochSecs(pts)) }

// MeanImagesPerSec returns total images over total wall-clock seconds
// across the series (each point's image count is recovered from its rate ×
// duration). Zero for an empty or zero-duration series.
func MeanImagesPerSec(pts []WallPoint) float64 {
	var images, secs float64
	for _, p := range pts {
		images += p.ImagesPerSec * p.Sec
		secs += p.Sec
	}
	if secs == 0 {
		return 0
	}
	return images / secs
}
