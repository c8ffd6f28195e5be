package experiments

import (
	"fmt"
	"math"

	"green/internal/core"
	"green/internal/energy"
	"green/internal/metrics"
	"green/internal/model"
	"green/internal/search"
	"green/internal/workload"
)

func init() {
	register("fig6", "Bing Search calibration: QoS loss and throughput improvement vs M", runFig6)
	register("fig10", "Bing Search versions: normalized throughput and energy", runFig10)
	register("fig11", "Bing Search versions: QoS loss", runFig11)
	register("fig12", "Bing Search: success rate vs offered load (cutoff QPS)", runFig12)
	register("fig13", "Bing Search QoS-model sensitivity to training-set size", runFig13)
	register("fig14", "Bing Search re-calibration with an imperfect QoS model", runFig14)
}

// searchFixture is the shared Bing-Search-substrate setup.
type searchFixture struct {
	engine     *search.Engine
	calQueries []search.Query
	tstQueries []search.Query
	// refN is the paper's "N" unit: the reference document-processing
	// budget that the M-*N versions are multiples of.
	refN int
	topN int
	cost *energy.CostModel
	// workers parallelizes the calibration phase's training queries.
	workers int
}

const searchTopN = 10

func newSearchFixture(o Options) (*searchFixture, error) {
	eng, err := search.NewEngine(search.Config{
		Docs: 20000, VocabSize: 2000, AvgDocLen: 60,
		Seed: workload.Split(o.Seed, 100),
	})
	if err != nil {
		return nil, err
	}
	cal, err := eng.GenerateQueries(workload.Split(o.Seed, 101), o.scaled(2000, 200))
	if err != nil {
		return nil, err
	}
	tst, err := eng.GenerateQueries(workload.Split(o.Seed, 102), o.scaled(5000, 300))
	if err != nil {
		return nil, err
	}
	f := &searchFixture{
		engine: eng, calQueries: cal, tstQueries: tst,
		topN: searchTopN, workers: o.Workers,
	}

	// Derive the reference budget N from the calibration workload: a
	// third of the mean matching-document count, so that M-N removes a
	// substantial but not dominant share of the scan work (matching the
	// paper's ~20-25% throughput effect at M-N) while M-10N is nearly
	// precise.
	meanMatch := 0.0
	for _, q := range cal {
		meanMatch += float64(eng.MatchCount(q))
	}
	meanMatch /= float64(len(cal))
	f.refN = int(meanMatch / 3)
	if f.refN < 10 {
		f.refN = 10
	}

	// Simulated server cost model: 5 microseconds per document scored
	// plus a fixed per-query overhead (parse, dispatch, ranking of the
	// final page, snippet generation) worth 1.5x the mean scan — index
	// scanning is a substantial but not dominant share of query cost,
	// which is what bounds the paper's throughput improvements at ~60%
	// even for tiny M (Figure 6). 300 W idle draw and a small dynamic
	// energy per document.
	const usPerDoc = 5e-6
	f.cost = &energy.CostModel{
		IdleWatts:    300,
		FixedSeconds: 1.5 * meanMatch * usPerDoc,
		FixedJoules:  0.5,
		UnitSeconds:  map[string]float64{"doc": usPerDoc},
		UnitJoules:   map[string]float64{"doc": 8e-4},
	}
	return f, nil
}

// searchVersion identifies one evaluated configuration.
type searchVersion struct {
	name string
	// maxDocs > 0: static cap (M-*N). maxDocs == 0: precise base.
	maxDocs int
	// adaptivePeriod > 0: M-PRO adaptive termination with this period.
	adaptivePeriod int
}

// run executes one query under the version and returns the ranked top-N
// and the documents processed.
func (v searchVersion) run(e *search.Engine, q search.Query, topN int) ([]int, int) {
	if v.adaptivePeriod > 0 {
		s := e.NewScan(q, topN)
		var prev []int
		for {
			advanced := false
			for i := 0; i < v.adaptivePeriod; i++ {
				if !s.Step() {
					break
				}
				advanced = true
			}
			if !advanced {
				break
			}
			cur := s.TopN()
			if prev != nil && metrics.TopNExactMatch(prev, cur) {
				break // no QoS improvement in the current period
			}
			prev = cur
		}
		return s.TopN(), s.Processed()
	}
	return e.Search(q, topN, v.maxDocs)
}

// evaluate runs the version over the query set, comparing against
// precomputed precise results, and returns the QoS loss fraction and the
// simulated report.
func (f *searchFixture) evaluate(v searchVersion, queries []search.Query, precise [][]int) (float64, energy.Report) {
	acct := energy.NewAccount()
	bad := 0
	for i, q := range queries {
		top, processed := v.run(f.engine, q, f.topN)
		acct.AddOp()
		acct.Add("doc", float64(processed))
		if !metrics.TopNExactMatch(precise[i], top) {
			bad++
		}
	}
	return float64(bad) / float64(len(queries)), f.cost.Evaluate(acct)
}

// preciseResults precomputes base top-N per query.
func (f *searchFixture) preciseResults(queries []search.Query) [][]int {
	out := make([][]int, len(queries))
	for i, q := range queries {
		out[i], _ = f.engine.Search(q, f.topN, 0)
	}
	return out
}

// standardVersions returns the paper's Figure 10/11 version set.
func (f *searchFixture) standardVersions() []searchVersion {
	n := f.refN
	return []searchVersion{
		{name: "Base"},
		{name: "M-10N", maxDocs: 10 * n},
		{name: "M-5N", maxDocs: 5 * n},
		{name: "M-2N", maxDocs: 2 * n},
		{name: "M-N", maxDocs: n},
		{name: "M-PRO-0.5N", adaptivePeriod: n / 2},
	}
}

// calibrationKnots is the Figure 6 sweep of M in units of N.
var calibrationKnots = []float64{0.1, 0.25, 0.5, 1, 2, 4, 6, 8, 10}

// calibrationLevels is the Figure 6 sweep in documents: each knot in
// units of N, floored at one document.
func (f *searchFixture) calibrationLevels() []float64 {
	levels := make([]float64, len(calibrationKnots))
	for i, k := range calibrationKnots {
		levels[i] = math.Max(1, k*float64(f.refN))
	}
	return levels
}

// buildLoopModel runs the calibration phase over the given queries and
// returns the loop model for the matching-document loop.
func (f *searchFixture) buildLoopModel(queries []search.Query) (*model.LoopModel, error) {
	baseLevel := float64(f.engine.Docs())
	cal, err := core.NewLoopCalibration("search.match", f.calibrationLevels(), baseLevel, baseLevel)
	if err != nil {
		return nil, err
	}
	// Training queries hit the engine's immutable index only, so they can
	// be measured concurrently; AddRunsParallel merges in query order, so
	// the model is identical for any worker count.
	caps := search.CapsOf(cal.Knots())
	err = cal.AddRunsParallel(f.workers, len(queries), func(i int) ([]float64, []float64, error) {
		losses, works := f.sweepLosses(queries[i], caps)
		return losses, works, nil
	})
	if err != nil {
		return nil, err
	}
	return cal.Build()
}

// sweepLosses measures one training query at every cap in a single
// scan: the 0/1 loss and the documents scored of each capped page
// against the precise page.
func (f *searchFixture) sweepLosses(q search.Query, caps []int) (losses, works []float64) {
	var sw search.CapSweep
	sw.Run(f.engine.NewScan(q, f.topN), caps)
	losses = make([]float64, len(caps))
	works = make([]float64, len(caps))
	for j := range caps {
		losses[j] = metrics.QueryLoss(sw.Precise, sw.Pages[j])
		works[j] = float64(sw.Work[j])
	}
	return losses, works
}

func runFig6(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	m, err := f.buildLoopModel(f.calQueries)
	if err != nil {
		return nil, err
	}
	// Base work for throughput comparison: the precise scan.
	baseAcct := energy.NewAccount()
	for _, q := range f.calQueries {
		_, n := f.engine.Search(q, f.topN, 0)
		baseAcct.AddOp()
		baseAcct.Add("doc", float64(n))
	}
	base := f.cost.Evaluate(baseAcct)

	t := &Table{Columns: []string{"M", "QoS loss", "throughput improvement"}}
	for _, k := range calibrationKnots {
		level := math.Max(1, k*float64(f.refN))
		loss := m.PredictLoss(level)
		// Throughput at this cap from the calibrated work curve.
		perQueryDocs := m.PredictWork(level)
		acct := energy.NewAccount()
		for range f.calQueries {
			acct.AddOp()
			acct.Add("doc", perQueryDocs)
		}
		rep := f.cost.Evaluate(acct)
		imp := base.Seconds/rep.Seconds - 1
		t.AddRow(fmt.Sprintf("%.1fN", k), pct(loss), pct(imp))
	}
	t.AddNote("N = %d documents (derived from the calibration workload)", f.refN)
	t.AddNote("calibration queries = %d over a %d-document corpus",
		len(f.calQueries), f.engine.Docs())
	return t, nil
}

func runFig10(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	precise := f.preciseResults(f.tstQueries)
	var baseRep energy.Report
	t := &Table{Columns: []string{"version", "norm. throughput (QPS)", "norm. energy (J/query)"}}
	for i, v := range f.standardVersions() {
		_, rep := f.evaluate(v, f.tstQueries, precise)
		if i == 0 {
			baseRep = rep
		}
		t.AddRow(v.name,
			norm(rep.Throughput()/baseRep.Throughput()),
			norm(rep.JoulesPerOp()/baseRep.JoulesPerOp()))
	}
	t.AddNote("base = 100; N = %d; test queries = %d", f.refN, len(f.tstQueries))
	return t, nil
}

func runFig11(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	precise := f.preciseResults(f.tstQueries)
	t := &Table{Columns: []string{"version", "QoS loss"}}
	for _, v := range f.standardVersions() {
		loss, _ := f.evaluate(v, f.tstQueries, precise)
		t.AddRow(v.name, pct(loss))
	}
	t.AddNote("QoS loss = fraction of queries whose top-%d set or order changed", f.topN)
	return t, nil
}

// runFig12 sweeps offered load and measures the success rate (fraction of
// queries finishing within a deadline) per version with a FIFO
// single-server queue fed at a deterministic rate — the cutoff-QPS
// methodology of the paper's Figure 12.
func runFig12(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	// Per-query service times per version.
	versions := f.standardVersions()
	serviceTimes := make([][]float64, len(versions))
	for vi, v := range versions {
		times := make([]float64, len(f.tstQueries))
		for i, q := range f.tstQueries {
			_, processed := v.run(f.engine, q, f.topN)
			acct := energy.NewAccount()
			acct.AddOp()
			acct.Add("doc", float64(processed))
			times[i] = f.cost.Evaluate(acct).Seconds
		}
		serviceTimes[vi] = times
	}
	// Base capacity and deadline.
	meanBase := 0.0
	for _, s := range serviceTimes[0] {
		meanBase += s
	}
	meanBase /= float64(len(serviceTimes[0]))
	baseCapacity := 1 / meanBase
	deadline := 4 * meanBase

	cols := []string{"offered QPS (% of base capacity)"}
	for _, v := range versions {
		cols = append(cols, v.name)
	}
	t := &Table{Columns: cols}
	cutoff := make([]float64, len(versions))
	for _, loadPct := range []float64{60, 80, 90, 100, 110, 120, 130, 140, 150} {
		rate := baseCapacity * loadPct / 100
		interval := 1 / rate
		row := []string{fmt.Sprintf("%.0f", loadPct)}
		for vi := range versions {
			ok := 0
			clock := 0.0
			free := 0.0
			for i, s := range serviceTimes[vi] {
				arrive := float64(i) * interval
				if arrive > free {
					free = arrive
				}
				finish := free + s
				free = finish
				if finish-arrive <= deadline {
					ok++
				}
				clock = arrive
			}
			_ = clock
			rate := float64(ok) / float64(len(serviceTimes[vi]))
			row = append(row, pct(rate))
			if rate >= 0.998 && loadPct > cutoff[vi] { // 100-4d line analog
				cutoff[vi] = loadPct
			}
		}
		t.AddRow(row...)
	}
	for vi, v := range versions {
		t.AddNote("cutoff QPS of %s ~= %.0f%% of base capacity", v.name, cutoff[vi])
	}
	return t, nil
}

func runFig13(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	sizes := []int{o.scaled(250, 25), o.scaled(500, 50), o.scaled(1000, 100),
		o.scaled(2000, 150), len(f.calQueries)}
	// Deduplicate (a scaled size can coincide with the full set).
	uniq := sizes[:0]
	for _, n := range sizes {
		if len(uniq) == 0 || uniq[len(uniq)-1] != min(n, len(f.calQueries)) {
			uniq = append(uniq, min(n, len(f.calQueries)))
		}
	}
	sizes = uniq
	level := float64(f.refN) // estimate at M = N, as the paper does
	var ref float64
	ests := make([]float64, len(sizes))
	for i, n := range sizes {
		if n > len(f.calQueries) {
			n = len(f.calQueries)
		}
		m, err := f.buildLoopModel(f.calQueries[:n])
		if err != nil {
			return nil, err
		}
		ests[i] = m.PredictLoss(level)
	}
	ref = ests[len(ests)-1]
	t := &Table{Columns: []string{"training queries", "estimated QoS loss at M=N", "difference vs largest"}}
	for i, n := range sizes {
		t.AddRow(fmt.Sprintf("%d", n), pct(ests[i]), pct(math.Abs(ests[i]-ref)))
	}
	t.AddNote("the model stabilizes with small training sets (paper: 10K vs 250K differ by 0.1%%)")
	return t, nil
}

// runFig14 reproduces the imperfect-model recovery experiment: the model
// wrongly supplies M = 0.1N for a 2%% SLA; windowed recalibration raises
// M by 0.1N per low-QoS window until the target is met.
func runFig14(o Options) (*Table, error) {
	f, err := newSearchFixture(o)
	if err != nil {
		return nil, err
	}
	m, err := f.buildLoopModel(f.calQueries)
	if err != nil {
		return nil, err
	}
	const sla = 0.02
	windowSize := 100
	sampleInterval := o.scaled(1000, 200) // monitor a window every this many queries
	step := 0.1 * float64(f.refN)
	rec := &windowRecorder{
		inner:  &core.WindowedPolicy{Window: windowSize, BaseInterval: sampleInterval},
		window: windowSize,
	}
	loop, err := core.NewLoop(core.LoopConfig{
		Name: "search.match", Model: m, SLA: sla,
		SampleInterval: sampleInterval,
		Policy:         rec,
		Step:           step,
		MinLevel:       1,
	})
	if err != nil {
		return nil, err
	}
	loop.SetLevel(0.1 * float64(f.refN)) // the imperfect model's answer

	t := &Table{Columns: []string{"queries processed", "M (xN)", "monitored window QoS loss"}}
	queries := f.tstQueries
	total := 0
	maxQueries := 60 * sampleInterval
	converged := -1
	reportedWindows := 0
	for total < maxQueries {
		q := queries[total%len(queries)]
		exec, err := loop.Begin(&searchLoopQoS{engine: f.engine, query: q, topN: f.topN})
		if err != nil {
			return nil, err
		}
		s := f.engine.NewScan(q, f.topN)
		i := 0
		for exec.Continue(i) && s.Step() {
			i++
		}
		exec.Finish(i)
		total++
		if len(rec.closes) > reportedWindows {
			reportedWindows = len(rec.closes)
			winLoss := rec.closes[reportedWindows-1]
			t.AddRow(fmt.Sprintf("%d", total),
				fmt.Sprintf("%.1f", loop.Level()/float64(f.refN)),
				pct(winLoss))
			if converged < 0 && winLoss <= sla {
				converged = total
			}
		}
	}
	if converged >= 0 {
		t.AddNote("a monitored window first met the 2%% SLA after %d queries (final M = %.1fN)",
			converged, loop.Level()/float64(f.refN))
	} else {
		t.AddNote("did not converge within %d queries (M = %.1fN)", total,
			loop.Level()/float64(f.refN))
	}
	t.AddNote("SLA = 2%%; imperfect model supplied M = 0.1N; each low-QoS window raises M by 0.1N")
	return t, nil
}

// windowRecorder wraps the windowed Bing policy and records the aggregate
// loss of every completed monitoring window, for the Figure 14 trace.
type windowRecorder struct {
	inner  *core.WindowedPolicy
	window int
	nm, nl int
	closes []float64
}

func (w *windowRecorder) Observe(loss, sla float64) core.Decision {
	w.nm++
	if loss != 0 {
		w.nl++
	}
	d := w.inner.Observe(loss, sla)
	if w.nm == w.window {
		w.closes = append(w.closes, float64(w.nl)/float64(w.nm))
		w.nm, w.nl = 0, 0
	}
	return d
}

// searchLoopQoS adapts one query's matching-document loop to the Green
// LoopQoS interface: Record snapshots the top-N the approximation would
// return; Loss compares it against the full scan's top-N.
type searchLoopQoS struct {
	engine   *search.Engine
	query    search.Query
	topN     int
	recorded []int
}

func (s *searchLoopQoS) Record(iter int) {
	top, _ := s.engine.Search(s.query, s.topN, iter)
	s.recorded = append(s.recorded[:0], top...)
}

func (s *searchLoopQoS) Loss(int) float64 {
	precise, _ := s.engine.Search(s.query, s.topN, 0)
	if s.recorded == nil {
		return 0
	}
	return metrics.QueryLoss(precise, s.recorded)
}
