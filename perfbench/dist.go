package main

import (
	"fmt"
	"sort"

	"green/internal/stats"
)

// dist is a sample whose percentiles are reported together with how
// many samples lie beyond them: a percentile with fewer than minBeyond
// samples above it is not supported by the sample.
type dist []float64

const minBeyond = 10

// quantile is one percentile of a dist.
type quantile struct {
	P      float64 // percentile in [0, 100]
	Value  float64
	N      int // sample size
	Beyond int // samples strictly greater than Value
}

func (q quantile) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", q.P, q.Value, q.N, q.Beyond)
}

// Supported reports whether at least minBeyond samples lie beyond the
// percentile.
func (q quantile) Supported() bool { return q.Beyond >= minBeyond }

// pct returns the p-th percentile (linear interpolation, as
// internal/stats computes it) with its sample counts. An empty sample
// yields the zero quantile with N == 0.
func (d dist) pct(p float64) quantile {
	if len(d) == 0 {
		return quantile{P: p}
	}
	v, err := stats.Percentile(d, p)
	if err != nil {
		return quantile{P: p, N: len(d)}
	}
	sorted := append(dist(nil), d...)
	sort.Float64s(sorted)
	beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return quantile{P: p, Value: v, N: len(d), Beyond: beyond}
}

func (d dist) median() float64 { return d.pct(50).Value }

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	return stats.Mean(d)
}
