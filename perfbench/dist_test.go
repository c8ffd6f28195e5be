package main

import "testing"

func TestPercentileCarriesSampleCounts(t *testing.T) {
	var d dist
	for i := 1; i <= 1000; i++ {
		d = append(d, float64(i))
	}
	p50 := d.pct(50)
	if p50.N != 1000 || p50.Value != 500.5 || p50.Beyond != 500 {
		t.Errorf("p50 = %+v", p50)
	}
	p99 := d.pct(99)
	if p99.Beyond != 10 || !p99.Supported() {
		t.Errorf("p99 = %+v: want 10 samples beyond, supported", p99)
	}
	p999 := d.pct(99.9)
	if p999.Beyond != 1 || p999.Supported() {
		t.Errorf("p99.9 = %+v: want 1 sample beyond, unsupported", p999)
	}
	if got := p99.String(); got != "p99=990 (n=1000, 10 beyond)" {
		t.Errorf("String() = %q", got)
	}
}

func TestPercentileTiesAndEmpty(t *testing.T) {
	d := dist{1, 1, 1, 1, 2}
	if q := d.pct(50); q.Value != 1 || q.Beyond != 1 {
		t.Errorf("p50 of ties = %+v", q)
	}
	var empty dist
	if q := empty.pct(99); q.N != 0 || q.Supported() {
		t.Errorf("empty p99 = %+v", q)
	}
}

func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 3.25 || med != 5.5 || q3 != 7.75 {
		t.Errorf("quartiles = %v %v %v, want 3.25 5.5 7.75", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricRule{lowerBetter: true, bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) (xs []float64, pairs [][2]float64) {
		for _, v := range base {
			xs = append(xs, v+d)
			pairs = append(pairs, [2]float64{v, v + d})
		}
		return xs, pairs
	}
	for _, tc := range []struct {
		delta float64
		want  string
	}{{0, "within bound"}, {-20, "better"}, {20, "worse"}, {5, "within bound"}} {
		b, pairs := shift(tc.delta)
		if got := verdict(base, b, pairs, lower); got != tc.want {
			t.Errorf("shift %v: %s, want %s", tc.delta, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if got := verdict(base, noisy, nil, lower); got != "unresolved" {
		t.Errorf("noisy: %s, want unresolved", got)
	}
	if got := verdict(base, base, nil, metricRule{lowerBetter: true}); got != "-" {
		t.Errorf("unbounded metric: %s", got)
	}
}
