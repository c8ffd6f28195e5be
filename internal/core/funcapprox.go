package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"green/internal/model"
)

// Fn is a scalar function candidate for approximation. The paper's QoS
// modeling scheme is restricted to functions taking numerical input
// (footnote 2); this reproduction adopts the same restriction.
type Fn func(float64) float64

// FuncQoS computes the fractional QoS loss of an approximate function
// result against the precise one. The default (nil) uses the normalized
// return-value difference, matching the paper: "Unless directed
// otherwise, Green uses the function return value as the QoS measure."
type FuncQoS func(precise, approx float64) float64

// defaultFuncQoS is the paper's default return-value QoS measure.
func defaultFuncQoS(precise, approx float64) float64 {
	denom := math.Abs(precise)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(approx-precise) / denom
}

// FuncConfig configures an approximable function (the arguments of the
// paper's approx_func annotation plus the constructed model).
type FuncConfig struct {
	// Name identifies the function in reports.
	Name string
	// Model is the QoS model built in the calibration phase. Its
	// Versions order must correspond to the Approx slice passed to
	// NewFunc (increasing precision).
	Model *model.FuncModel
	// SLA is the maximal tolerated fractional QoS loss; it must lie in
	// (0,1].
	SLA float64
	// SampleInterval is Sample_QoS; zero disables recalibration and
	// negative values are rejected.
	SampleInterval int
	// Policy is the recalibration policy; nil selects DefaultPolicy.
	Policy RecalibratePolicy
	// Key maps the call argument into the model's input domain; nil is
	// the identity. The blackscholes exp model, for example, is built
	// over abs(x) (Figure 7 tests abs(x) ranges).
	Key func(float64) float64
	// QoS overrides the default return-value QoS computation.
	QoS FuncQoS
	// Disabled forces every call to the precise version (overhead
	// experiment and global fallback).
	Disabled bool
	// OnEvent, when non-nil, receives an Event after every monitored
	// call.
	OnEvent EventFunc
	// BreakerThreshold is the number of consecutive contained panics (in
	// the approximate version or the QoS comparator on monitored calls)
	// that trip the circuit breaker to forced-precise operation. Zero
	// means 3; negative disables tripping. See resilience.go.
	BreakerThreshold int
	// BreakerCooldown is the number of calls the breaker stays open
	// before a half-open probe. Zero derives four sampling intervals
	// (minimum 16).
	BreakerCooldown int
}

// Func is an approximable function: the operational-phase object
// synthesized from an approx_func annotation. Call reproduces the
// generated code of Figure 7 and is safe for concurrent use; the
// non-monitored path is lock-free. The version ladder — snapshot,
// offset, monitored call, Unit methods — comes from the embedded ladder
// core (ladder.go), and the counters, sampling decision, breaker, policy
// plumbing, and Stats from the generic controller beneath it.
type Func struct {
	ladder

	cfg      FuncConfig
	precise  Fn
	versions []Fn
	key      func(float64) float64

	// workMilli accumulates model work units in thousandths, so the hot
	// path can use a single atomic add for fractional unit costs.
	workMilli atomic.Int64
}

// NewFunc builds the controller. precise is the exact implementation;
// approx are the programmer-supplied approximate versions in increasing
// order of precision, and must match cfg.Model's version curves
// one-to-one.
func NewFunc(cfg FuncConfig, precise Fn, approx []Fn) (*Func, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: func requires a model")
	}
	if precise == nil {
		return nil, errors.New("core: func requires a precise implementation")
	}
	if len(approx) != len(cfg.Model.Versions) {
		return nil, fmt.Errorf("core: func %q: %d approximate versions but model has %d curves",
			cfg.Name, len(approx), len(cfg.Model.Versions))
	}
	f := &Func{
		cfg:      cfg,
		precise:  precise,
		versions: append([]Fn(nil), approx...),
		key:      cfg.Key,
	}
	if f.key == nil {
		f.key = func(x float64) float64 { return x }
	}
	if err := f.initLadder("func", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
		BreakerThreshold: cfg.BreakerThreshold, BreakerCooldown: cfg.BreakerCooldown,
	}, len(approx), cfg.QoS, ladderState{
		ranges:       cfg.Model.Ranges(cfg.SLA),
		approxSwitch: approxSwitch{forceOff: cfg.Disabled},
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Ranges returns the currently active selection ranges (before the
// recalibration offset is applied).
func (f *Func) Ranges() []model.Range {
	st := f.state.Load()
	return append([]model.Range(nil), st.ranges...)
}

// selectVersion returns the version index (or model.PreciseVersion) for
// input x: the Select stage's choice when it made one, otherwise the
// snapshot's range table shifted by its offset.
func (f *Func) selectVersion(st *ladderState, sd *selDecision, x float64) int {
	if sd.selected {
		// The level is a version index: negative levels are the precise
		// function, and so is anything past the ladder's end.
		v := int(sd.level)
		if v < 0 || v >= len(f.versions) {
			return model.PreciseVersion
		}
		return v
	}
	if st.off() {
		return model.PreciseVersion
	}
	k := f.key(x)
	for i := range st.ranges {
		r := st.ranges[i]
		if k >= r.Lo && (k < r.Hi || (k == r.Hi && r.Hi == st.ranges[len(st.ranges)-1].Hi)) {
			return f.shift(st, r.Version)
		}
	}
	// Outside the calibrated domain the model knows nothing: precise.
	return model.PreciseVersion
}

// Call evaluates the function at x under the approximation policy; it is
// the synthesized call site of Figure 2:
//
//	if (QoS_Fn_Approx(x, QoS_SLA)) y = FApprox[M](x); else y = F(x);
//	count++; if ((count % Sample_QoS) == 0) QoS_ReCalibrate();
//
// On monitored calls both the precise and the selected approximate
// version run; the measured loss feeds the recalibration policy and the
// precise result is returned.
func (f *Func) Call(x float64) float64 {
	return f.call(x, Features{}, false)
}

// CallFeat evaluates the function at x with per-input Features: the
// Select stage maps them through the installed Selector to a version
// of the ladder (the level is the version index; model.PreciseVersion
// selects precise), replacing the range-table lookup for this call.
// When no Selector is installed (or it declines) the call is
// bit-identical to Call.
func (f *Func) CallFeat(x float64, feat Features) float64 {
	return f.call(x, feat, true)
}

// call is the shared Select+Execute+Observe+Correct pipeline of one
// function call.
func (f *Func) call(x float64, feat Features, useSel bool) float64 {
	st := f.state.Load()
	o := f.stageExecute()
	var sd selDecision
	if useSel {
		sd = f.stageSelect(feat, o.forced || st.off())
	}
	v := f.selectVersion(st, &sd, x)
	if o.forced {
		// Breaker open: forced precise, monitoring suspended.
		v = model.PreciseVersion
	}
	if !o.monitor {
		if v == model.PreciseVersion {
			f.addWork(f.cfg.Model.PreciseWork)
			return f.precise(x)
		}
		f.addWork(f.cfg.Model.Versions[v].Work)
		return f.versions[v](x)
	}
	y, work := f.member(o, sd, v, x)
	f.addWork(work)
	return y
}

// member runs one monitored call of version v at x through the ladder
// core and returns the precise result with the model work it cost: the
// precise version, plus version v when it ran to completion. Call and
// CallN share it.
func (f *Func) member(o obs, sd selDecision, v int, x float64) (y, work float64) {
	y, approxRan := f.callMonitored(o, sd, v, func(v int) float64 {
		if v == model.PreciseVersion {
			return f.precise(x)
		}
		return f.versions[v](x)
	})
	work = f.cfg.Model.PreciseWork
	if approxRan {
		work += f.cfg.Model.Versions[v].Work
	}
	return y, work
}

// CallN evaluates the function at each xs[i], writing results into
// ys[i]: the batched Call. The approximation snapshot is loaded once,
// one sampling decision covers the batch (monitoring a deterministic
// member — see stageExecuteBatch), and the execution counter and work
// accounting fold into one atomic add each per batch instead of one per
// call. Monitored-member semantics are exactly Call's: precise and
// approximate both run, the loss feeds the policy immediately, and the
// remaining members see the post-recalibration snapshot. ys must be at
// least as long as xs.
func (f *Func) CallN(xs, ys []float64) error {
	return f.callN(xs, ys, Features{}, false)
}

// CallNFeat is the batched CallFeat: one Features value describes the
// batch, the Select stage chooses one version for all members, and the
// monitored member's loss corrects the chosen bucket. Bit-identical to
// CallN when no Selector is installed.
func (f *Func) CallNFeat(xs, ys []float64, feat Features) error {
	return f.callN(xs, ys, feat, true)
}

func (f *Func) callN(xs, ys []float64, feat Features, useSel bool) error {
	n := len(xs)
	if len(ys) < n {
		return fmt.Errorf("core: func %q: CallN output slice %d shorter than input %d", f.cfg.Name, len(ys), n)
	}
	if n == 0 {
		return nil
	}
	st := f.state.Load()
	o := f.stageExecuteBatch(n)
	var sd selDecision
	if useSel {
		sd = f.stageSelect(feat, o.forced || st.off())
	}
	if o.forced {
		// Breaker open: the whole batch runs precise, monitoring
		// suspended.
		for i := 0; i < n; i++ {
			ys[i] = f.precise(xs[i])
		}
		f.addWork(f.cfg.Model.PreciseWork * float64(n))
		return nil
	}
	work := 0.0
	for i := 0; i < n; i++ {
		x := xs[i]
		v := f.selectVersion(st, &sd, x)
		if i != o.monitorAt {
			if v == model.PreciseVersion {
				work += f.cfg.Model.PreciseWork
				ys[i] = f.precise(x)
			} else {
				work += f.cfg.Model.Versions[v].Work
				ys[i] = f.versions[v](x)
			}
			continue
		}
		y, w := f.member(obs{seq: o.first + int64(i), monitor: true, probe: o.probe}, sd, v, x)
		ys[i] = y
		work += w
		// The observation may have moved the offset: later members read
		// the fresh snapshot, exactly as unbatched Calls would.
		st = f.state.Load()
	}
	f.addWork(work)
	return nil
}

func (f *Func) addWork(w float64) {
	f.workMilli.Add(int64(w*1000 + 0.5))
}

// Work returns the accumulated model work units across all calls.
// Experiments use this as the simulated cost of the
// function-approximation portion of a run.
func (f *Func) Work() float64 {
	return float64(f.workMilli.Load()) / 1000
}

// WorkReset clears the accumulated work counter.
func (f *Func) WorkReset() { f.workMilli.Store(0) }

// Sensitivity implements Unit: the mean modeled loss improvement per unit
// of relative work increase when shifting every selected version one step
// more precise.
func (f *Func) Sensitivity() float64 {
	st := f.state.Load()
	m := f.cfg.Model

	var dLoss, dWork float64
	n := 0
	for _, r := range st.ranges {
		if r.Version == model.PreciseVersion {
			continue
		}
		cur := r.Version + st.offset
		if cur < 0 {
			cur = 0
		}
		if cur >= len(m.Versions) {
			continue // already precise here
		}
		mid := (r.Lo + r.Hi) / 2
		lossCur := m.Versions[cur].LossAt(mid)
		var lossUp, workUp float64
		if cur+1 >= len(m.Versions) {
			lossUp, workUp = 0, m.PreciseWork
		} else {
			lossUp, workUp = m.Versions[cur+1].LossAt(mid), m.Versions[cur+1].Work
		}
		dLoss += lossCur - lossUp
		dWork += (workUp - m.Versions[cur].Work) / m.PreciseWork
		n++
	}
	if n == 0 || dWork <= 0 {
		return 0
	}
	return dLoss / dWork
}
