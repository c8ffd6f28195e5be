package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when someone sleeps, naps or yields.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Duration
	sleeps []time.Duration
	naps   []time.Duration
}

const fakeYield = time.Microsecond

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
}

func (c *fakeClock) Nap(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.naps = append(c.naps, d)
	c.mu.Unlock()
}

func (c *fakeClock) Yield() {
	c.mu.Lock()
	c.now += fakeYield
	c.mu.Unlock()
}

func TestWaitUntilNeverSleepsBelowAMillisecond(t *testing.T) {
	for _, due := range []time.Duration{0, 50 * time.Microsecond, 300 * time.Microsecond,
		900 * time.Microsecond, 2 * time.Millisecond, 2600 * time.Microsecond, 10 * time.Millisecond} {
		c := &fakeClock{}
		waitUntil(c, due)
		if c.now < due || c.now > due+fakeYield {
			t.Errorf("due %v: returned at %v", due, c.now)
		}
		for _, s := range c.sleeps {
			if s < time.Millisecond {
				t.Errorf("due %v: time.Sleep(%v) below the timer granularity", due, s)
			}
		}
		for _, n := range c.naps {
			if n <= 0 || n > minSleep {
				t.Errorf("due %v: nap of %v", due, n)
			}
		}
	}
}

func TestScheduleDueTimes(t *testing.T) {
	s := schedule{start: 5 * time.Millisecond, rate: 2000, n: 4}
	want := []time.Duration{5 * time.Millisecond, 5500 * time.Microsecond, 6 * time.Millisecond, 6500 * time.Microsecond}
	for i, w := range want {
		if got := s.due(i); got != w {
			t.Errorf("due(%d) = %v, want %v", i, got, w)
		}
	}
}

// A single worker slower than the schedule falls behind it: every
// request starts no earlier than it is due, waits for the one before
// it, and its latency counts from the due time, so it includes that
// wait. The pacer runs far ahead of the worker (1µs gaps against 1.5ms
// of service), so only the worker moves the fake clock once the first
// request is out.
func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	const (
		service = 1500 * time.Microsecond
		n       = 20
	)
	c := &fakeClock{}
	sched := schedule{rate: 1e6, n: n}
	recs := openLoop(c, sched, 1, func(w, i int) bool {
		c.Sleep(service)
		return i%5 != 4
	})
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	// Until the first request's service moves the clock past every due
	// time, the pacer's yields may move it too: by at most n yields.
	slack := time.Duration(n) * fakeYield
	for i, r := range recs {
		if r.Due != time.Duration(i)*time.Microsecond {
			t.Errorf("request %d: due %v", i, r.Due)
		}
		if r.Start < r.Due {
			t.Errorf("request %d started %v before it was due", i, r.Due-r.Start)
		}
		wantStart := time.Duration(i) * service
		if r.Start < wantStart || r.Start > wantStart+slack || r.End-r.Start > service+slack {
			t.Errorf("request %d: ran %v..%v, want %v..%v", i, r.Start, r.End, wantStart, wantStart+service)
		}
		if i > 1 && r.Start != recs[i-1].End {
			t.Errorf("request %d started at %v, not when request %d ended (%v)", i, r.Start, i-1, recs[i-1].End)
		}
		if r.Late() != r.Start-r.Due || r.Latency() != r.Late()+service {
			t.Errorf("request %d: lateness %v and latency %v not taken from the due time", i, r.Late(), r.Latency())
		}
		if r.OK != (i%5 != 4) {
			t.Errorf("request %d: ok %v", i, r.OK)
		}
	}
}

func TestLatencyStatsCountsFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	recs := []record{
		{Due: 0, Start: 0, End: 1 * ms, OK: true},
		{Due: 0, Start: 2 * ms, End: 4 * ms, OK: true}, // 4ms from due
		{Due: 0, Start: 0, End: 1 * ms, OK: false},     // failed: a miss, not a latency sample
		{Due: 0, Start: 0, End: 9 * ms, OK: true},      // over the limit
	}
	lat, late, attain := latencyStats(recs, 5*ms)
	if len(lat) != 3 || len(late) != 4 {
		t.Fatalf("%d latency samples, %d lateness samples; want 3 and 4", len(lat), len(late))
	}
	if attain != 0.5 {
		t.Errorf("attainment %v, want 0.5", attain)
	}
	if lat[1] != 4 {
		t.Errorf("second latency %v ms, want 4 (from the due time)", lat[1])
	}
}

func TestClosedLoop(t *testing.T) {
	c := &fakeClock{}
	sent, failed := closedLoop(c, 100*time.Millisecond, 1, func(w, i int) bool {
		c.Sleep(time.Millisecond)
		return i%10 != 0
	})
	if sent != 100 || failed != 10 {
		t.Fatalf("sent %d failed %d, want 100 and 10", sent, failed)
	}
}

// runLoad reports its figures over every request of the phase: a
// stalled stretch and failed requests count against slo_attain.
func TestRunLoadCountsEveryRequest(t *testing.T) {
	p := loadPlan{rate: 1000, limit: 5 * time.Millisecond, segLat: 3 * time.Second, segTput: 2 * time.Second, perSeg: 3000}
	rep := newReport(envRecord{})
	segment := 0
	open := func(first, n int, traced bool) []record {
		sched := schedule{rate: p.rate, n: n}
		recs := make([]record, n)
		for i := range recs {
			lat := time.Millisecond
			if segment == 2 && i < 1500 {
				lat = 6*time.Millisecond + time.Duration(i)*time.Microsecond // a stalled stretch: misses the limit
			}
			due := sched.due(i)
			recs[i] = record{Due: due, Start: due, End: due + lat, OK: segment != 4 || i >= 30}
		}
		segment++
		return recs
	}
	closed := func(dur time.Duration) int64 { return int64(2000 * dur.Seconds()) }
	p50 := runLoad(rep, p, open, closed)
	if p50 != 1 || rep.layer["lat_p50_ms"] != 1 {
		t.Errorf("median %v ms, lat_p50_ms %v, want 1", p50, rep.layer["lat_p50_ms"])
	}
	// 1500 slow and 30 failed requests of 15000.
	if got, want := rep.e2e["slo_attain"], 1-1530.0/15000; got != want {
		t.Errorf("slo_attain %v, want %v", got, want)
	}
	if got := rep.layer["throughput_qps"]; got != 2000 {
		t.Errorf("throughput_qps %v, want 2000", got)
	}
	if len(rep.problems) != 0 {
		t.Errorf("problems: %v", rep.problems)
	}
}
