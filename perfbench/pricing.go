package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"green/internal/approxmath"
	"green/internal/blackscholes"
	"green/internal/core"
	"green/internal/model"
	"green/internal/workload"
)

// The pricing workload: a seeded Black-Scholes portfolio priced with exp
// and log each under a core.Func controller, calibrated as the fig8c
// experiment calibrates them. A request ("quote") prices quoteOptions
// consecutive options of the portfolio: the smallest native portfolio
// fig8c prices (scaled(20000, 800)). A quote then costs about what a
// search page costs, so the latency phase follows the search workload's
// rules: its rate is about a fifth of the closed-loop rate (about 3000
// quotes/s over two goroutines on a 2-CPU Xeon VM), and its limit is
// search's 5 ms.
const (
	quoteOptions   = 800
	portfolioSize  = 100000
	qualityPasses  = 20
	pricingRate    = 600 // quotes per second in the latency phase
	pricingLimit   = 5 * time.Millisecond
	trainOptions   = 6400 // fig8c's training portfolio
	trainSeed      = 600
	localSLA       = 0.01
	sampleInterval = 1000
	expBinWidth    = 0.1
	logBinWidth    = 0.05
	funcPasses     = 5
	setupPerPoint  = 3
)

// pricer is the program under test: the two controllers, and the
// direct calls they stand for.
type pricer struct {
	exp, log *core.Func
	expFns   []core.Fn
	logFns   []core.Fn
}

func ladder(deg0, deg1 int, fn func(int) func(float64) float64, terms func(int) int) (fns []core.Fn, names []string, work []float64) {
	for d := deg0; d <= deg1; d++ {
		fns = append(fns, core.Fn(fn(d)))
		names = append(names, fmt.Sprint(d))
		work = append(work, float64(terms(d)))
	}
	return fns, names, work
}

// newPricer calibrates both function models on the training portfolio
// and builds the controllers: the workload's setup.
func newPricer() (*pricer, error) {
	train := workload.Options(workload.Split(corpusSeed, trainSeed), trainOptions)
	p := &pricer{}
	var err error
	p.exp, p.expFns, err = calibrateFunc("exp", approxmath.PreciseExpTerms, expBinWidth, math.Exp,
		blackscholes.ObservedExpArgs(train), 3, 6, approxmath.ExpTaylor, approxmath.ExpTerms)
	if err != nil {
		return nil, err
	}
	p.log, p.logFns, err = calibrateFunc("log", approxmath.PreciseLogTerms, logBinWidth, math.Log,
		blackscholes.ObservedLogArgs(train), 2, 4, approxmath.LogTaylor, approxmath.LogTerms)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func calibrateFunc(name string, preciseTerms, binWidth float64, precise func(float64) float64, args []float64,
	deg0, deg1 int, fn func(int) func(float64) float64, terms func(int) int) (*core.Func, []core.Fn, error) {
	fns, names, work := ladder(deg0, deg1, fn, terms)
	cal, err := core.NewFuncCalibration(name, preciseTerms, names, work, binWidth)
	if err != nil {
		return nil, nil, err
	}
	if err := cal.Calibrate(precise, fns, args, nil); err != nil {
		return nil, nil, err
	}
	m, err := cal.Build()
	if err != nil {
		return nil, nil, err
	}
	f, err := core.NewFunc(core.FuncConfig{Name: name, Model: m, SLA: localSLA, SampleInterval: sampleInterval}, precise, fns)
	return f, fns, err
}

func (p *pricer) fns() blackscholes.MathFns {
	return blackscholes.MathFns{Exp: p.exp.Call, Log: p.log.Call}
}

// direct returns functions that call the version each controller's
// ranges and offset select, without the controller.
func (p *pricer) direct() blackscholes.MathFns {
	pick := func(f *core.Func, versions []core.Fn, precise core.Fn) core.Fn {
		ranges, offset := f.Ranges(), f.Offset()
		return func(x float64) float64 {
			for _, r := range ranges {
				if x >= r.Lo && (x < r.Hi || (x == r.Hi && r.Hi == ranges[len(ranges)-1].Hi)) {
					if v := r.Version; v != model.PreciseVersion {
						if v += offset; v < len(versions) {
							return versions[max(v, 0)](x)
						}
					}
					break
				}
			}
			return precise(x)
		}
	}
	return blackscholes.MathFns{Exp: pick(p.exp, p.expFns, math.Exp), Log: pick(p.log, p.logFns, math.Log)}
}

// quote prices options [i*quoteOptions, (i+1)*quoteOptions) of the
// portfolio (wrapping) into out and reports whether every price is
// finite.
func quote(opts []workload.Option, i int, fns blackscholes.MathFns, out []float64) bool {
	ok := true
	base := (i * quoteOptions) % len(opts)
	for k := 0; k < quoteOptions; k++ {
		v, err := blackscholes.Price(opts[(base+k)%len(opts)], fns)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
		out[k] = v
	}
	return ok
}

// recalCounter counts the recalibrations that changed controllers'
// levels: policy runs, each seen once, whose action was not ActNone.
type recalCounter struct {
	seq map[core.Controller]int64
	n   int64
}

func (r *recalCounter) observe(c core.Controller) {
	seq, act := c.LastRecalibration()
	if r.seq == nil {
		r.seq = map[core.Controller]int64{}
	}
	if seq != r.seq[c] {
		r.seq[c] = seq
		if act != core.ActNone {
			r.n++
		}
	}
}

// selfCPU is this process's user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// optionLoss is fig8c's per-option loss: relative price error with a
// one-cent floor on the denominator, capped at 1.
func optionLoss(precise, approx float64) float64 {
	denom := math.Max(math.Abs(precise), 0.01)
	return math.Min(math.Abs(approx-precise)/denom, 1)
}

func runPricing(env envRecord) (*report, error) {
	plan := newLoadPlan(pricingRate, pricingLimit, env.Seconds)
	plan.record(&env)
	workers := runtime.NumCPU()
	env.Connections, env.QualityN, env.SetupRepeats = workers, qualityPasses*portfolioSize/quoteOptions, (rounds+1)*setupPerPoint
	rep := newReport(env)

	// Setup: calibration plus controller construction, timed
	// setupPerPoint times here and again before each latency segment.
	// It takes a few milliseconds, and the host's speed for that long
	// swung by up to 2x between runs and within them; samples spread over
	// the run make its median steadier. Each starts from a collected
	// heap.
	var setups dist
	setup := func() (*pricer, error) {
		var p *pricer
		var err error
		for i := 0; i < setupPerPoint; i++ {
			runtime.GC()
			t0 := time.Now()
			if p, err = newPricer(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return p, nil
	}
	p, err := setup()
	if err != nil {
		return nil, err
	}

	// As in the serving workloads, the quality phase prices one fixed
	// portfolio; --seed draws the portfolio the load phases price.
	qopts := workload.Options(workload.Split(qualitySeed, 700), portfolioSize)
	precise, err := blackscholes.PricePortfolio(qopts, blackscholes.MathFns{})
	if err != nil {
		return nil, err
	}
	opts := workload.Options(workload.Split(env.Seed, 700), portfolioSize)

	var attempted, failed int64
	fns := p.fns()
	out := make([]float64, quoteOptions)

	// Quality: one goroutine, the portfolio in order, qualityPasses times.
	e0, l0 := p.exp, p.log
	work0 := e0.Work() + l0.Work()
	var levelSum float64
	var recals recalCounter
	lossSum, priced := 0.0, 0
	quotes := env.QualityN
	// getrusage brings the calling thread's own CPU time up to date;
	// /proc lags a running thread by up to a scheduler tick.
	cpu, err := newCPUMeter(selfCPU)
	if err != nil {
		return nil, err
	}
	for i := 0; i < quotes; i++ {
		attempted++
		if !quote(qopts, i, fns, out) {
			failed++
		}
		base := (i * quoteOptions) % len(qopts)
		for k, v := range out {
			lossSum += optionLoss(precise[(base+k)%len(qopts)], v)
			priced++
		}
		levelSum += (e0.Level() + l0.Level()) / 2
		recals.observe(e0)
		recals.observe(l0)
	}
	rep.e2e["qos_loss"] = lossSum / float64(priced)
	if err := cpu.report(rep, quotes); err != nil {
		return nil, err
	}
	rep.note("quality: %d quotes of %d options, mean capped relative price error %.6g",
		quotes, quoteOptions, rep.e2e["qos_loss"])
	L := rep.layer
	work := e0.Work() + l0.Work() - work0
	rep.e2e["work_per_query"] = work / float64(quotes)
	L["core.func_work_per_option"] = work / float64(priced)
	L["core.level_mean"] = levelSum / float64(quotes)
	L["core.recalibrations"] = float64(recals.n)
	ee, em, el := e0.Stats()
	le, lm, ll := l0.Stats()
	L["core.monitored_share"] = float64(em+lm) / float64(ee+le)
	if em+lm > 0 {
		L["core.monitored_loss"] = (el*float64(em) + ll*float64(lm)) / float64(em+lm)
	}

	// Load: latency and throughput segments alternate. The closed loop
	// prices over nproc goroutines sharing the controllers; the open
	// loop leaves one CPU to its pacer, which shares this process. The
	// traced segment records a span per quote.
	openWorkers := max(1, workers-1)
	tr := &tracer{}
	outs := make([][]float64, workers)
	for w := range outs {
		outs[w] = make([]float64, quoteOptions)
	}
	var bad atomic.Int64
	open := func(first, n int, traced bool) []record {
		if !traced {
			if _, err := setup(); err != nil {
				rep.problem("setup: %v", err)
			}
		}
		clk := newWallClock()
		sched := schedule{start: clk.Now() + 20*time.Millisecond, rate: pricingRate, n: n}
		recs := openLoop(clk, sched, openWorkers, func(w, i int) bool {
			start := time.Now()
			ok := quote(opts, first+i, fns, outs[w])
			if traced {
				tr.add(span{Kind: kindQuote, Req: int64(i), ID: tr.newID(), Start: start.UnixNano(), End: time.Now().UnixNano()})
			}
			if !ok {
				bad.Add(1)
			}
			return ok
		})
		attempted += int64(n)
		return recs
	}
	tpNext := 0
	closed := func(dur time.Duration) int64 {
		sent, nbad := closedLoop(newWallClock(), dur, workers, func(w, i int) bool {
			return quote(opts, tpNext+i, fns, outs[w])
		})
		tpNext += int(sent)
		attempted += sent
		failed += nbad
		return sent - nbad
	}
	gc0, tot0 := runtimeCPU()
	untracedP50 := runLoad(rep, plan, open, closed)
	gc1, tot1 := runtimeCPU()
	rep.e2e["setup_s"] = setups.median()
	rep.note("setup_s samples %v", setups)
	rep.note("throughput: %.0f options/s", rep.layer["throughput_qps"]*quoteOptions)
	if tot1 > tot0 {
		L["proc.gc_cpu_share"] = (gc1 - gc0) / (tot1 - tot0)
	}
	if env.Trace {
		p.traceLayers(rep, opts, tr, func() []record {
			return open(0, plan.perSeg, true)
		}, untracedP50)
	}
	failed += bad.Load()

	hwm, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.e2e["rss_mb"] = hwm
	rep.attempted, rep.failed = attempted, failed
	rep.e2e["ok_frac"] = 1 - float64(failed)/float64(attempted)
	rep.note("priced %d quotes: %d with a non-finite price (fail_frac %.6f)", attempted, failed, float64(failed)/float64(attempted))
	if failed > 0 {
		rep.problem("%d quotes had a non-finite price", failed)
	}
	return rep, nil
}

// traceLayers measures the controller's per-call cost and the traced
// latency pass, and reconciles the quote latency with them.
func (p *pricer) traceLayers(rep *report, opts []workload.Option, tr *tracer, tracedPass func() []record, untracedP50 float64) {
	L := rep.layer
	// Alternate passes through the controllers and through the directly
	// called versions; the median difference per call is the
	// controller's cost.
	pass := func(fns blackscholes.MathFns) time.Duration {
		t0 := time.Now()
		for _, o := range opts {
			_, _ = blackscholes.Price(o, fns) // options are valid; NaNs are checked elsewhere
		}
		return time.Since(t0)
	}
	var ctrl, direct dist
	for i := 0; i < funcPasses; i++ {
		ctrl = append(ctrl, float64(pass(p.fns()).Nanoseconds()))
		direct = append(direct, float64(pass(p.direct()).Nanoseconds()))
	}
	calls := float64(len(opts) * (blackscholes.ExpCallsPerOption + blackscholes.LogCallsPerOption))
	L["core.func_call_ns"] = (ctrl.median() - direct.median()) / calls
	rep.note("pricing pass: %.1f ns/option through the controllers, %.1f ns/option calling the selected versions directly",
		ctrl.median()/float64(len(opts)), direct.median()/float64(len(opts)))

	recs := tracedPass()
	var lat, late, quoteDur dist
	for _, r := range recs {
		late = append(late, us(r.Late()))
		if r.OK {
			lat = append(lat, ms(r.Latency()))
		}
	}
	for _, s := range tr.snapshot() {
		quoteDur = append(quoteDur, us(s.dur()))
	}
	L["gen.late_p50_us"], L["gen.late_p99_us"] = late.pct(50).Value, late.pct(99).Value
	tracedP50 := lat.median()
	layerSum := late.median() + quoteDur.median()
	L["trace.residual_us"] = tracedP50*1e3 - layerSum
	L["trace.overhead_us"] = (tracedP50 - untracedP50) * 1e3
	rep.note("layer self p50 us: gen %.1f, quote (pricing through core.Func) %.1f; controller share %.1f us per quote",
		late.median(), quoteDur.median(), L["core.func_call_ns"]*quoteOptions*4/1e3)
	rep.note("reconciliation: traced lat_p50 %.1f us = layers %.1f us + residual %.1f us; tracing overhead %.1f us (untraced lat_p50 %.1f us)",
		tracedP50*1e3, layerSum, L["trace.residual_us"], L["trace.overhead_us"], untracedP50*1e3)
}
