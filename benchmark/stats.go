package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; zero for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quietShare is the part of a run the serving workload's numbers are taken
// from: the fastest sixteenth of its repeated units. Each core of the
// reference box runs at one of two speeds for seconds at a time (a plain
// single-threaded loop takes 62 or 74 us a pass) and the share of each speed
// drifts over minutes, so the median of the units follows whatever slows the
// box down, while the fast edge is the program's own speed and repeats from
// run to run (README.md, "The reference box"). Nothing outside the program
// ever makes a unit faster.
const quietShare = 1.0 / 16

// quietEdge is the mean of the best quietShare of v, at least one value: the
// lowest when lower is better (times), else the highest (rates).
func quietEdge(v []float64, lower bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(float64(len(s)) * quietShare))
	if lower {
		return mean(s[:k])
	}
	return mean(s[len(s)-k:])
}

func quietTime(v []float64) float64 { return quietEdge(v, true) }
func quietRate(v []float64) float64 { return quietEdge(v, false) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (exclusive method), so spreads printed here match the driver's.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailQuantile reports the highest of p99.9/p99/p90 that still has at least
// ten samples beyond it, with its label ("" when even p90 has fewer).
func tailQuantile(v []float64) (label string, value float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(v))*(1-c.q) >= 10 {
			return c.label, quantile(v, c.q)
		}
	}
	return "", 0
}
