package experiments

import (
	"fmt"
	"math"
	"sort"

	"green/internal/approxmath"
	"green/internal/core"
	"green/internal/dft"
	"green/internal/energy"
	"green/internal/metrics"
	"green/internal/model"
	"green/internal/raytracer"
	"green/internal/search"
)

func init() {
	register("selector",
		"reactive vs proactive per-input selection: loss distribution, mis-approximation counts, simulated time",
		runSelector)
}

// runSelector compares the reactive-only controller (Green's sampling
// law alone) against the staged pipeline with a per-input Selector on
// three workloads. For each it reports the served loss distribution
// (mean and standard deviation), how often the controller
// over-approximated (served loss above the SLA) or under-approximated
// (met the SLA but did strictly more work than the cheapest calibrated
// configuration that also would have), and the simulated per-operation
// time from the workload's energy cost model. Simulated time — not wall
// clock — keeps the experiment deterministic and lint-clean.
func runSelector(o Options) (*Table, error) {
	t := &Table{Columns: []string{
		"workload", "controller", "mean loss", "loss stddev",
		"over-approx", "under-approx", "sim ns/op",
	}}
	if err := selectorSearchRows(o, t); err != nil {
		return nil, err
	}
	if err := selectorEonRows(o, t); err != nil {
		return nil, err
	}
	if err := selectorDFTRows(o, t); err != nil {
		return nil, err
	}
	t.AddNote("over-approx = served loss above the SLA; under-approx = SLA met with strictly more work than the cheapest per-input configuration that also meets it")
	t.AddNote("monitored executions run precisely by design, so both controllers pay the same sampling tax of under-approximated inputs")
	return t, nil
}

// quantileEdges derives feature-bucket edges from the empirical
// quantiles of the calibration keys, so each bucket trains on a
// comparable share of inputs. Duplicate quantiles collapse (bucket
// edges must strictly increase), so skewed key distributions simply
// yield fewer buckets.
func quantileEdges(keys []float64, nb int) []float64 {
	s := append([]float64(nil), keys...)
	sort.Float64s(s)
	edges := make([]float64, 0, nb+1)
	for i := 0; i <= nb; i++ {
		v := s[i*(len(s)-1)/nb]
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	if len(edges) < 2 {
		edges = append(edges, edges[0]+1)
	}
	return edges
}

// selOutcome accumulates one controller's served distribution.
type selOutcome struct {
	losses      []float64
	over, under int
	acct        *energy.Account
}

func newSelOutcome() *selOutcome {
	return &selOutcome{acct: energy.NewAccount()}
}

func (s *selOutcome) add(loss float64, over, under bool) {
	s.losses = append(s.losses, loss)
	if over {
		s.over++
	}
	if under {
		s.under++
	}
}

func (s *selOutcome) meanStd() (mean, std float64) {
	if len(s.losses) == 0 {
		return 0, 0
	}
	for _, l := range s.losses {
		mean += l
	}
	mean /= float64(len(s.losses))
	for _, l := range s.losses {
		std += (l - mean) * (l - mean)
	}
	return mean, math.Sqrt(std / float64(len(s.losses)))
}

func (s *selOutcome) variance() float64 {
	_, std := s.meanStd()
	return std * std
}

func (s *selOutcome) addRow(t *Table, workload, controller string, cost *energy.CostModel) {
	mean, std := s.meanStd()
	rep := cost.Evaluate(s.acct)
	nsPerOp := rep.Seconds / float64(len(s.losses)) * 1e9
	t.AddRow(workload, controller, pct(mean), pct(std),
		fmt.Sprintf("%d", s.over), fmt.Sprintf("%d", s.under),
		fmt.Sprintf("%.0f", nsPerOp))
}

// ---------------------------------------------------------------------
// Search: the matching-document loop, featured by posting mass.
// ---------------------------------------------------------------------

const selectorSearchSLA = 0.05

// postingMass is the per-query feature: the summed document frequency of
// the query terms. It is computable before the scan starts (a dictionary
// lookup per term) and predicts how quickly the top-N stabilizes —
// high-mass queries need deeper scans for an exact top-N.
func postingMass(e *search.Engine, q search.Query) float64 {
	m := 0.0
	for _, term := range q.Terms {
		m += float64(e.DocFreq(term))
	}
	return m
}

func selectorSearchRows(o Options, t *Table) error {
	f, err := newSearchFixture(o)
	if err != nil {
		return err
	}
	baseLevel := float64(f.engine.Docs())
	cal, err := core.NewLoopCalibration("search.match", f.calibrationLevels(), baseLevel, baseLevel)
	if err != nil {
		return err
	}
	calKeys := make([]float64, len(f.calQueries))
	for i, q := range f.calQueries {
		calKeys[i] = postingMass(f.engine, q)
	}
	if err := cal.FeatureBuckets(quantileEdges(calKeys, 4)); err != nil {
		return err
	}
	caps := search.CapsOf(cal.Knots())
	err = cal.AddRunsFeatParallel(f.workers, len(f.calQueries), func(i int) (core.Features, []float64, []float64, error) {
		losses, works := f.sweepLosses(f.calQueries[i], caps)
		return core.Features{Key: calKeys[i], Valid: true}, losses, works, nil
	})
	if err != nil {
		return err
	}
	m, err := cal.Build()
	if err != nil {
		return err
	}

	// Per-query oracle: the precise top-N and the fewest documents any
	// calibrated cap processes while still matching it (query loss is
	// 0/1, so "meets the SLA" means an exact match).
	type searchOracle struct {
		precise []int
		minDocs int
	}
	oracles := make([]searchOracle, len(f.tstQueries))
	var sw search.CapSweep
	for i, q := range f.tstQueries {
		sw.Run(f.engine.NewScan(q, f.topN), caps)
		minDocs := sw.Matches
		for j := range caps {
			if metrics.QueryLoss(sw.Precise, sw.Pages[j]) == 0 {
				minDocs = sw.Work[j]
				break
			}
		}
		oracles[i] = searchOracle{precise: append([]int(nil), sw.Precise...), minDocs: minDocs}
	}

	drive := func(useSel bool) (*selOutcome, error) {
		loop, err := core.NewLoop(core.LoopConfig{
			Name: "search.match", Model: m, SLA: selectorSearchSLA,
			SampleInterval: 25, MinLevel: 1,
		})
		if err != nil {
			return nil, err
		}
		if useSel {
			sel, err := cal.BuildSelector()
			if err != nil {
				return nil, err
			}
			loop.InstallSelector(sel)
		}
		out := newSelOutcome()
		for i, q := range f.tstQueries {
			qos := &searchLoopQoS{engine: f.engine, query: q, topN: f.topN}
			// ExecFeat with no Selector installed is bit-identical to
			// Begin, so the reactive row threads the same features and
			// simply never consults them.
			exec, err := loop.ExecFeat(qos, core.Features{Key: postingMass(f.engine, q), Valid: true})
			if err != nil {
				return nil, err
			}
			s := f.engine.NewScan(q, f.topN)
			it := 0
			for exec.Continue(it) && s.Step() {
				it++
			}
			exec.Finish(it)
			loss := metrics.QueryLoss(oracles[i].precise, s.TopN())
			docs := s.Processed()
			out.add(loss, loss > selectorSearchSLA,
				loss <= selectorSearchSLA && docs > oracles[i].minDocs)
			out.acct.AddOp()
			out.acct.Add("doc", float64(docs))
		}
		return out, nil
	}
	reactive, err := drive(false)
	if err != nil {
		return err
	}
	proactive, err := drive(true)
	if err != nil {
		return err
	}
	reactive.addRow(t, "search", "reactive", f.cost)
	proactive.addRow(t, "search", "proactive", f.cost)
	t.AddNote("search: SLA = %s, feature = posting mass, %d test queries; loss variance reactive %.5f vs proactive %.5f",
		pct(selectorSearchSLA), len(f.tstQueries), reactive.variance(), proactive.variance())
	return nil
}

// ---------------------------------------------------------------------
// Raytracer: the pass loop, featured by camera distance.
// ---------------------------------------------------------------------

// eonLoopQoS adapts one rendering's pass loop to the LoopQoS interface:
// Record snapshots the framebuffer the approximation would ship, Loss
// compares it against the base rendering of the same input.
type eonLoopQoS struct {
	base     []float64
	r        *raytracer.Renderer
	recorded []float64
}

func (e *eonLoopQoS) Record(int) {
	e.recorded = append(e.recorded[:0], e.r.Snapshot().Pix...)
}

func (e *eonLoopQoS) Loss(int) float64 {
	if e.recorded == nil {
		return 0
	}
	d, err := metrics.PixelDiff(e.base, e.recorded)
	if err != nil {
		return 0
	}
	return d
}

// camDistance is the per-input feature: how far the camera sits from
// the origin the random cameras orbit. Distant cameras shrink the scene
// into fewer, lower-variance pixels, so their images converge in fewer
// passes.
func camDistance(c raytracer.Camera) float64 {
	return math.Sqrt(c.Pos.X*c.Pos.X + c.Pos.Y*c.Pos.Y + c.Pos.Z*c.Pos.Z)
}

func selectorEonRows(o Options, t *Table) error {
	f := newEonFixture(o)
	nTrain := len(f.cameras) / 2
	if nTrain < 2 {
		nTrain = 2
	}
	if nTrain >= len(f.cameras) {
		return fmt.Errorf("selector: eon needs at least %d inputs, have %d", nTrain+1, len(f.cameras))
	}
	knots := make([]float64, len(eonVersionNs))
	for i, n := range eonVersionNs {
		knots[i] = float64(n * n)
	}
	baseLevel := float64(f.baseN * f.baseN)
	raysPerPass := float64(f.w * f.h * 3)
	cal, err := core.NewLoopCalibration("eon.passes", knots, baseLevel, baseLevel*raysPerPass)
	if err != nil {
		return err
	}
	trainKeys := make([]float64, nTrain)
	for i := 0; i < nTrain; i++ {
		trainKeys[i] = camDistance(f.cameras[i])
	}
	if err := cal.FeatureBuckets(quantileEdges(trainKeys, 3)); err != nil {
		return err
	}

	// sweep renders input i incrementally and returns per-knot losses
	// and cumulative ray counts, plus the base image.
	sweep := func(i int) (*raytracer.Image, []float64, []float64, error) {
		baseImg, _, err := f.renderInput(i, f.baseN*f.baseN)
		if err != nil {
			return nil, nil, nil, err
		}
		r, err := raytracer.NewRenderer(f.scene, f.cameras[i], f.w, f.h, f.seeds[i])
		if err != nil {
			return nil, nil, nil, err
		}
		losses := make([]float64, len(knots))
		works := make([]float64, len(knots))
		for k, knot := range knots {
			for r.Passes() < int(knot) {
				r.Pass()
			}
			d, err := metrics.PixelDiff(baseImg.Pix, r.Snapshot().Pix)
			if err != nil {
				return nil, nil, nil, err
			}
			losses[k] = d
			works[k] = float64(r.Rays())
		}
		return baseImg, losses, works, nil
	}

	for i := 0; i < nTrain; i++ {
		_, losses, works, err := sweep(i)
		if err != nil {
			return err
		}
		if err := cal.AddRunFeat(core.Features{Key: trainKeys[i], Valid: true}, losses, works); err != nil {
			return err
		}
	}
	m, err := cal.Build()
	if err != nil {
		return err
	}
	// SLA between the calibrated extremes: tight enough that the
	// cheapest knot misses it on hard inputs, loose enough that deeper
	// knots satisfy it. The geometric mean of the global mean losses at
	// the coarsest and finest knots sits there by construction.
	coarse := m.PredictLoss(knots[0])
	fine := m.PredictLoss(knots[len(knots)-1])
	sla := math.Sqrt(math.Max(fine, 1e-6) * math.Max(coarse, 1e-6))
	if !(sla > 0) || sla >= 1 {
		sla = 0.02
	}

	// Per-test-input oracle: base image plus the fewest rays any
	// calibrated pass budget needs to meet the SLA on that input.
	type eonOracle struct {
		base    *raytracer.Image
		minRays float64
	}
	oracles := make([]eonOracle, 0, len(f.cameras)-nTrain)
	for i := nTrain; i < len(f.cameras); i++ {
		baseImg, losses, works, err := sweep(i)
		if err != nil {
			return err
		}
		minRays := works[len(works)-1] // full-depth fallback
		for k := range knots {
			if losses[k] <= sla {
				minRays = works[k]
				break
			}
		}
		oracles = append(oracles, eonOracle{base: baseImg, minRays: minRays})
	}

	drive := func(useSel bool) (*selOutcome, error) {
		loop, err := core.NewLoop(core.LoopConfig{
			Name: "eon.passes", Model: m, SLA: sla,
			SampleInterval: 8, MinLevel: knots[0],
		})
		if err != nil {
			return nil, err
		}
		if useSel {
			sel, err := cal.BuildSelector()
			if err != nil {
				return nil, err
			}
			loop.InstallSelector(sel)
		}
		out := newSelOutcome()
		for oi, i := 0, nTrain; i < len(f.cameras); oi, i = oi+1, i+1 {
			r, err := raytracer.NewRenderer(f.scene, f.cameras[i], f.w, f.h, f.seeds[i])
			if err != nil {
				return nil, err
			}
			qos := &eonLoopQoS{base: oracles[oi].base.Pix, r: r}
			// As in the search drive: without a Selector the features are
			// inert and ExecFeat is bit-identical to Begin.
			exec, err := loop.ExecFeat(qos, core.Features{Key: camDistance(f.cameras[i]), Valid: true})
			if err != nil {
				return nil, err
			}
			it := 0
			for it < f.baseN*f.baseN && exec.Continue(it) {
				r.Pass()
				it++
			}
			exec.Finish(it)
			loss, err := metrics.PixelDiff(oracles[oi].base.Pix, r.Snapshot().Pix)
			if err != nil {
				return nil, err
			}
			rays := float64(r.Rays())
			out.add(loss, loss > sla, loss <= sla && rays > oracles[oi].minRays)
			out.acct.AddOp()
			out.acct.Add("ray", rays)
		}
		return out, nil
	}
	reactive, err := drive(false)
	if err != nil {
		return err
	}
	proactive, err := drive(true)
	if err != nil {
		return err
	}
	reactive.addRow(t, "raytracer", "reactive", f.cost)
	proactive.addRow(t, "raytracer", "proactive", f.cost)
	t.AddNote("raytracer: SLA = %s (derived from the calibrated loss range), feature = camera distance, %d train / %d test inputs",
		pct(sla), nTrain, len(f.cameras)-nTrain)
	return nil
}

// ---------------------------------------------------------------------
// DFT: the trig version ladder, featured by signal crest factor.
// ---------------------------------------------------------------------

// crestFactor is the per-signal feature: peak amplitude over RMS.
// Spiky signals concentrate spectral energy where trig error matters
// most, so they need finer grades for the same normalized loss.
func crestFactor(sig []float64) float64 {
	peak, sum := 0.0, 0.0
	for _, x := range sig {
		if a := math.Abs(x); a > peak {
			peak = a
		}
		sum += x * x
	}
	rms := math.Sqrt(sum / float64(len(sig)))
	if rms == 0 {
		return 0
	}
	return peak / rms
}

func selectorDFTRows(o Options, t *Table) error {
	f := newDFTFixture(o)
	versions := dftVersionSet()
	// The FuncSelector walks its ladder cheapest-first, so order the
	// version set by work ascending (name-stable for determinism).
	sort.SliceStable(versions, func(i, j int) bool {
		wi := versions[i].cosGrade.Terms() + versions[i].sinGrade.Terms()
		wj := versions[j].cosGrade.Terms() + versions[j].sinGrade.Terms()
		return wi < wj
	})
	termsOf := func(v dftVersion) float64 {
		return (float64(v.cosGrade.Terms()+v.sinGrade.Terms()) + dftBodyTerms) *
			float64(f.n) * float64(f.n)
	}
	preciseTerms := (float64(2*approxmath.TrigPrecise.Terms()) + dftBodyTerms) *
		float64(f.n) * float64(f.n)

	nTrain := len(f.signals) / 2
	if nTrain < 2 {
		nTrain = 2
	}
	if nTrain >= len(f.signals) {
		return fmt.Errorf("selector: dft needs at least %d signals, have %d", nTrain+1, len(f.signals))
	}

	// Per-signal per-version loss matrix against the precise spectra.
	preciseRe := make([][]float64, len(f.signals))
	preciseIm := make([][]float64, len(f.signals))
	for i, sig := range f.signals {
		re, im, err := dft.Transform(sig, dft.PreciseTrig())
		if err != nil {
			return err
		}
		preciseRe[i], preciseIm[i] = re, im
	}
	loss := make([][]float64, len(versions)) // [version][signal]
	for v, ver := range versions {
		trig := dft.Trig{
			Sin: approxmath.SinFn(ver.sinGrade),
			Cos: approxmath.CosFn(ver.cosGrade),
		}
		loss[v] = make([]float64, len(f.signals))
		for i, sig := range f.signals {
			re, im, err := dft.Transform(sig, trig)
			if err != nil {
				return err
			}
			lr, err := metrics.RMSNormDiff(preciseRe[i], re)
			if err != nil {
				return err
			}
			li, err := metrics.RMSNormDiff(preciseIm[i], im)
			if err != nil {
				return err
			}
			loss[v][i] = (lr + li) / 2
		}
	}
	trainMean := make([]float64, len(versions))
	for v := range versions {
		for i := 0; i < nTrain; i++ {
			trainMean[v] += loss[v][i]
		}
		trainMean[v] /= float64(nTrain)
	}
	// The trig grades are orders of magnitude apart, so only the border
	// between the two coarsest versions leaves room for per-input
	// choice: an SLA between their training means (geometric midpoint)
	// makes the cheapest version a per-signal gamble rather than a
	// global yes or no.
	sortedMeans := append([]float64(nil), trainMean...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sortedMeans)))
	sla := math.Sqrt(math.Max(sortedMeans[0], 1e-12) * math.Max(sortedMeans[1], 1e-12))
	if !(sla > 0) || sla >= 1 {
		sla = 0.01
	}

	// Reactive baseline: the one version the global calibration picks —
	// cheapest whose training mean loss meets the SLA, else precise.
	reactiveV := model.PreciseVersion
	for v := range versions {
		if trainMean[v] <= sla {
			reactiveV = v
			break
		}
	}

	// Proactive: a FuncSelector bucketed by crest factor.
	names := make([]string, len(versions))
	work := make([]float64, len(versions))
	for v, ver := range versions {
		names[v] = ver.name
		work[v] = termsOf(ver)
	}
	fcal, err := core.NewFuncCalibration("dft.trig", preciseTerms, names, work, 1)
	if err != nil {
		return err
	}
	trainKeys := make([]float64, nTrain)
	for i := 0; i < nTrain; i++ {
		trainKeys[i] = crestFactor(f.signals[i])
	}
	if err := fcal.FeatureBuckets(quantileEdges(trainKeys, 3)); err != nil {
		return err
	}
	for i := 0; i < nTrain; i++ {
		feat := core.Features{Key: trainKeys[i], Valid: true}
		for v := range versions {
			if err := fcal.AddSampleFeat(feat, v, 0, loss[v][i]); err != nil {
				return err
			}
		}
	}
	fsel, err := fcal.BuildFuncSelector()
	if err != nil {
		return err
	}

	lossAndTerms := func(v, i int) (float64, float64) {
		if v == model.PreciseVersion {
			return 0, preciseTerms
		}
		return loss[v][i], termsOf(versions[v])
	}
	oracleTerms := func(i int) float64 {
		// Cheapest version meeting the SLA on this signal; the ladder is
		// work-sorted, so the first hit is the floor.
		for v := range versions {
			if loss[v][i] <= sla {
				return termsOf(versions[v])
			}
		}
		return preciseTerms
	}

	eval := func(choose func(i int) int) *selOutcome {
		out := newSelOutcome()
		for i := nTrain; i < len(f.signals); i++ {
			l, terms := lossAndTerms(choose(i), i)
			out.add(l, l > sla, l <= sla && terms > oracleTerms(i))
			out.acct.AddOp()
			out.acct.Add("term", terms)
		}
		return out
	}
	reactive := eval(func(int) int { return reactiveV })
	proactive := eval(func(i int) int {
		lvl, ok := fsel.Select(core.Features{Key: crestFactor(f.signals[i]), Valid: true}, sla)
		if !ok {
			return reactiveV // selector declines: fall back to the global pick
		}
		return int(lvl)
	})
	reactive.addRow(t, "dft", "reactive", f.cost)
	proactive.addRow(t, "dft", "proactive", f.cost)
	reactiveName := "Base"
	if reactiveV != model.PreciseVersion {
		reactiveName = versions[reactiveV].name
	}
	t.AddNote("dft: SLA = %s (derived), feature = crest factor, %d train / %d test signals; reactive serves %s for every input",
		pct(sla), nTrain, len(f.signals)-nTrain, reactiveName)
	return nil
}
