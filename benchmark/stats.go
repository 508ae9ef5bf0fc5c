package main

import (
	"math"
	"slices"
	"time"
)

// samples is a set of measurements in one unit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// percentile returns the p-th percentile (0 < p <= 100) by nearest rank,
// or 0 for an empty set.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func (s samples) median() float64 { return s.percentile(50) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) max() float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Max(s)
}

// tailPercentiles are the percentiles a tail is reported at, highest first.
var tailPercentiles = []int{99, 95, 90, 50}

// tailPercentile returns the highest percentile, up to limit, that leaves
// at least ten of n samples beyond it; the median when none does. A tail
// read off fewer samples than that is one or two outliers, not a tail.
func tailPercentile(n, limit int) int {
	for _, p := range tailPercentiles {
		if p <= limit && n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// tail returns the value at tailPercentile(len(s), limit) and the
// percentile used.
func (s samples) tail(limit int) (float64, int) {
	p := tailPercentile(len(s), limit)
	return s.percentile(float64(p)), p
}
