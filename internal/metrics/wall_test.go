package metrics

import (
	"math"
	"testing"
)

func TestWallSummaries(t *testing.T) {
	pts := []WallPoint{
		{Epoch: 1, Sec: 4, ImagesPerSec: 100}, // warm-up outlier
		{Epoch: 2, Sec: 2, ImagesPerSec: 200},
		{Epoch: 3, Sec: 1, ImagesPerSec: 400},
	}
	if got := MedianEpochSec(pts); got != 2 {
		t.Errorf("MedianEpochSec = %v, want 2", got)
	}
	// 400+400+400 images over 7 seconds.
	if got := MeanImagesPerSec(pts); math.Abs(got-1200.0/7) > 1e-12 {
		t.Errorf("MeanImagesPerSec = %v, want %v", got, 1200.0/7)
	}

	even := []WallPoint{{Sec: 1}, {Sec: 3}}
	if got := MedianEpochSec(even); got != 2 {
		t.Errorf("even MedianEpochSec = %v, want 2", got)
	}
	if MedianEpochSec(nil) != 0 || MeanImagesPerSec(nil) != 0 {
		t.Error("empty series must summarise to zero")
	}
}
