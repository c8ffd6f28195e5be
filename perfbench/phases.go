package main

import (
	"time"
)

// latencyStats summarizes requests: latency (ms) over the successful
// ones, lateness (us) over all, and the share answered within limit,
// with failures counted as misses.
func latencyStats(recs []record, limit time.Duration) (lat, late dist, attain float64) {
	within := 0
	for _, r := range recs {
		late = append(late, us(r.Late()))
		if !r.OK {
			continue
		}
		lat = append(lat, ms(r.Latency()))
		if r.Latency() <= limit {
			within++
		}
	}
	return lat, late, float64(within) / float64(len(recs))
}

// rounds is how many times the load phases alternate: each round is an
// open-loop latency segment and then a closed-loop throughput segment,
// so both phases sample the whole run rather than one stretch of it.
// --seconds is split between the latency phase (half) and the
// throughput phase (three tenths); the quality phase is a fixed amount
// of work.
const rounds = 5

// loadPlan sizes the alternating load phases of one run.
type loadPlan struct {
	rate    float64
	limit   time.Duration
	segLat  time.Duration // one latency segment
	segTput time.Duration // one throughput segment
	perSeg  int           // requests per latency segment
}

func newLoadPlan(rate float64, limit time.Duration, seconds int) loadPlan {
	s := time.Duration(seconds) * time.Second
	seg := s / 2 / rounds
	return loadPlan{rate: rate, limit: limit, segLat: seg, segTput: s * 3 / 10 / rounds, perSeg: int(rate * seg.Seconds())}
}

// latencyRequests is how many requests the latency segments send.
func (p loadPlan) latencyRequests() int { return rounds * p.perSeg }

func (p loadPlan) record(env *envRecord) {
	env.Rate, env.LimitMs = p.rate, ms(p.limit)
	env.LatencySecs, env.ThroughSecs = rounds*p.segLat.Seconds(), rounds*p.segTput.Seconds()
}

// openFunc runs one open-loop segment: requests [first, first+n) at the
// plan's rate, traced or not.
type openFunc func(first, n int, traced bool) []record

// closedFunc runs one closed-loop segment of dur and returns how many
// requests succeeded.
type closedFunc func(dur time.Duration) int64

// runLoad runs the rounds, sets slo_attain, lat_p50_ms and
// throughput_qps over every request of their phase, and returns the
// median latency. The p99 is printed with its sample count but is not a
// figure: on a shared host it measures the host's stalls, and its
// run-to-run spread was five to ten times the largest bound a figure
// may have.
func runLoad(rep *report, p loadPlan, open openFunc, closed closedFunc) float64 {
	var all []record
	var completed int64
	steal := newStealMeter()
	for r := 0; r < rounds; r++ {
		all = append(all, open(r*p.perSeg, p.perSeg, false)...)
		completed += closed(p.segTput)
	}
	lat, late, attain := latencyStats(all, p.limit)
	if len(lat) == 0 {
		rep.problem("every latency-phase request failed")
	}
	p99 := lat.pct(99)
	if !p99.Supported() {
		rep.problem("the p99 has only %d samples beyond it", p99.Beyond)
	}
	rep.layer["lat_p50_ms"] = lat.median()
	rep.e2e["slo_attain"] = attain
	rep.layer["throughput_qps"] = float64(completed) / (rounds * p.segTput).Seconds()
	rep.note("latency: %d requests at %.0f/s in %d segments of %v: lat ms %v, %v; slo_attain %.5f within %v",
		len(all), p.rate, rounds, p.segLat, lat.pct(50), p99, attain, p.limit)
	rep.note("generator lateness us %v, %v", late.pct(50), late.pct(99))
	rep.note("throughput: %d requests completed in %d segments of %v; throughput_qps %.6g",
		completed, rounds, p.segTput, rep.layer["throughput_qps"])
	rep.env.StealShare = steal.share()
	rep.note("host: %.2f%% of the machine's CPU time was stolen by the hypervisor during the load phases", 100*rep.env.StealShare)
	return lat.median()
}

// cpuMeter measures a process's CPU time per request over a phase.
type cpuMeter struct {
	read  func() (time.Duration, error)
	first time.Duration
}

func newCPUMeter(read func() (time.Duration, error)) (*cpuMeter, error) {
	t, err := read()
	return &cpuMeter{read: read, first: t}, err
}

// report sets cpu_us_per_query from the CPU time used since the meter
// was made, over n requests.
func (m *cpuMeter) report(rep *report, n int) error {
	t, err := m.read()
	if err != nil {
		return err
	}
	rep.layer["cpu_us_per_query"] = us(t-m.first) / float64(n)
	rep.note("cpu: %v over %d requests; cpu_us_per_query %.6g", t-m.first, n, rep.layer["cpu_us_per_query"])
	return nil
}
