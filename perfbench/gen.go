package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's view of time, so the schedule and lateness
// accounting can run under a fake clock in tests. Now is the time since
// an arbitrary origin.
type clock interface {
	Now() time.Duration
	// Sleep waits on the Go runtime's timer, which wakes with about a
	// millisecond's granularity on Linux.
	Sleep(d time.Duration)
	// Nap blocks the thread in the kernel's high-resolution sleep, which
	// overshoots by tens of microseconds rather than a millisecond.
	Nap(d time.Duration)
	// Yield lets other goroutines run while the pacer spins out the last
	// stretch before a due time.
	Yield()
}

type wallClock struct{ origin time.Time }

func newWallClock() wallClock             { return wallClock{origin: time.Now()} }
func (c wallClock) Now() time.Duration    { return time.Since(c.origin) }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }
func (wallClock) Yield()                  { runtime.Gosched() }

func (wallClock) Nap(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is harmless: the pacer re-checks
}

// No sleep is trusted to end on time. The Go runtime's timers wake with
// about a millisecond's granularity on Linux, so time.Sleep, never asked
// for less than minSleep-sleepMargin, only brings the pacer to within
// sleepMargin of a due time;
// a kernel nanosleep brings it to within napMargin; the pacer spins
// (yielding) for the rest, so it is late only when it is descheduled.
// Spinning the whole gap would hold a CPU the server needs.
const (
	minSleep    = 2500 * time.Microsecond
	sleepMargin = 1500 * time.Microsecond
	napMargin   = 80 * time.Microsecond
)

// waitUntil returns once c.Now() >= due.
func waitUntil(c clock, due time.Duration) {
	for {
		d := due - c.Now()
		switch {
		case d <= 0:
			return
		case d >= minSleep:
			c.Sleep(d - sleepMargin)
		case d > 2*napMargin:
			c.Nap(d - napMargin)
		default:
			c.Yield()
		}
	}
}

// schedule is a fixed-rate open-loop arrival schedule: request i is due
// at start + i/rate.
type schedule struct {
	start time.Duration
	rate  float64 // requests per second
	n     int
}

func (s schedule) due(i int) time.Duration {
	return s.start + time.Duration(float64(i)*float64(time.Second)/s.rate)
}

// record is one request's timing in an open-loop run. Latency runs from
// the due time, so a stall that delays later sends is charged to them.
type record struct {
	Due, Start, End time.Duration
	OK              bool
}

func (r record) Latency() time.Duration { return r.End - r.Due }
func (r record) Late() time.Duration    { return r.Start - r.Due }

// doFunc sends request i on worker w (which owns one connection) and
// reports whether it succeeded and passed the output check.
type doFunc func(w, i int) bool

// openLoop runs sched over workers goroutines and returns one record per
// request. One pacer goroutine releases each request at its due time;
// the workers pick released requests up in order, so a request waits
// when every worker is busy and that wait shows as lateness.
func openLoop(c clock, sched schedule, workers int, do doFunc) []record {
	recs := make([]record, sched.n)
	// Buffered to the number of sends: the pacer never blocks, so a
	// backlog cannot slow the schedule down.
	jobs := make(chan int, sched.n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				start := c.Now()
				ok := do(w, i)
				recs[i] = record{Due: sched.due(i), Start: start, End: c.Now(), OK: ok}
			}
		}(w)
	}
	for i := 0; i < sched.n; i++ {
		waitUntil(c, sched.due(i))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return recs
}

// closedLoop keeps workers goroutines sending back to back until
// duration has passed, and returns how many requests were sent and how
// many failed.
func closedLoop(c clock, duration time.Duration, workers int, do doFunc) (sent, failed int64) {
	var next, nSent, nFailed atomic.Int64
	until := c.Now() + duration
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for c.Now() < until {
				i := int(next.Add(1) - 1)
				nSent.Add(1)
				if !do(w, i) {
					nFailed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return nSent.Load(), nFailed.Load()
}
