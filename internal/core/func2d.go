package core

import (
	"errors"
	"fmt"
	"sync"

	"green/internal/model"
)

// This file implements two extensions the paper identifies but leaves to
// future work:
//
//   - Func2 approximates functions of *two* numeric parameters (footnote
//     1: "this can be extended to multiple parameters") using the 2-D
//     grid model from internal/model.
//   - Site gives each call site of an approximated function its own
//     recalibration state (§3.2.2: "our current implementation does not
//     differentiate between call sites and uses the same QoS_Approx()
//     function for all sites"). Sites share the calibration model but
//     adjust precision independently, so a call site seeing harder inputs
//     can run more precisely without slowing the others down.

// Fn2 is a two-parameter function candidate for approximation.
type Fn2 func(x, y float64) float64

// Func2Config configures a two-parameter approximable function.
type Func2Config struct {
	// Name identifies the function in reports.
	Name string
	// Model is the 2-D grid QoS model from the calibration phase.
	Model *model.FuncModel2D
	// SLA is the maximal tolerated fractional QoS loss; it must lie in
	// (0,1].
	SLA float64
	// SampleInterval is Sample_QoS; zero disables recalibration and
	// negative values are rejected.
	SampleInterval int
	// Policy is the recalibration policy; nil selects DefaultPolicy.
	Policy RecalibratePolicy
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

// Func2 is the two-parameter function controller. It mirrors Func's
// behavior — per-call cheapest-version selection under the SLA, monitored
// sampling with panic containment and a circuit breaker, and
// offset-based recalibration — by embedding the same ladder core
// (ladder.go); it adds only the grid lookup, Sensitivity, and the typed
// Call/CallN entry points. The non-monitored path is lock-free.
type Func2 struct {
	ladder

	cfg      Func2Config
	precise  Fn2
	versions []Fn2
}

// NewFunc2 builds the controller; approx must match the model's versions
// one-to-one in increasing precision order.
func NewFunc2(cfg Func2Config, precise Fn2, approx []Fn2) (*Func2, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: func2 requires a model")
	}
	if precise == nil {
		return nil, errors.New("core: func2 requires a precise implementation")
	}
	if len(approx) != len(cfg.Model.Versions) {
		return nil, fmt.Errorf("core: func2 %q: %d versions but model has %d",
			cfg.Name, len(approx), len(cfg.Model.Versions))
	}
	f := &Func2{
		cfg:      cfg,
		precise:  precise,
		versions: append([]Fn2(nil), approx...),
	}
	if err := f.initLadder("func2", ctrlOptions{
		Name: cfg.Name, SLA: cfg.SLA, SampleInterval: cfg.SampleInterval,
		Policy: cfg.Policy, OnEvent: cfg.OnEvent,
		BreakerThreshold: cfg.BreakerThreshold, BreakerCooldown: cfg.BreakerCooldown,
	}, len(approx), cfg.QoS, ladderState{approxSwitch: approxSwitch{forceOff: cfg.Disabled}}); err != nil {
		return nil, err
	}
	return f, nil
}

// selectVersion applies the grid model plus the snapshot's offset.
func (f *Func2) selectVersion(st *ladderState, x, y float64) int {
	if st.off() {
		return model.PreciseVersion
	}
	return f.shift(st, f.cfg.Model.SelectVersion(x, y, f.cfg.SLA))
}

// Call evaluates the function under the approximation policy. On
// monitored calls both the precise and the selected approximate version
// run; the measured loss feeds the recalibration policy and the precise
// result is returned. As with Func, the extra work the monitored path
// adds (the approximate version and the QoS comparator) runs under
// recover; a contained panic discards the observation and charges the
// breaker.
func (f *Func2) Call(x, y float64) float64 {
	st := f.state.Load()
	o := f.stageExecute()
	v := f.selectVersion(st, x, y)
	if o.forced {
		// Breaker open: forced precise, monitoring suspended.
		v = model.PreciseVersion
	}
	if !o.monitor {
		if v == model.PreciseVersion {
			return f.precise(x, y)
		}
		return f.versions[v](x, y)
	}
	return f.member(o, v, x, y)
}

// member runs one monitored call of version v at (x, y) through the
// ladder core. Call and CallN share it.
func (f *Func2) member(o obs, v int, x, y float64) float64 {
	z, _ := f.callMonitored(o, selDecision{}, v, func(v int) float64 {
		if v == model.PreciseVersion {
			return f.precise(x, y)
		}
		return f.versions[v](x, y)
	})
	return z
}

// CallN evaluates the function at each (xs[i], ys[i]) pair, writing
// results into zs[i]: the batched Call. One snapshot load, one sampling
// decision, and one counter add cover the whole batch; the monitored
// member (if any) behaves exactly like an unbatched monitored Call and
// later members see the post-recalibration snapshot. zs must be at
// least as long as xs and ys (whose lengths must match).
func (f *Func2) CallN(xs, ys, zs []float64) error {
	n := len(xs)
	if len(ys) != n {
		return fmt.Errorf("core: func2 %q: CallN input lengths differ (%d vs %d)", f.cfg.Name, n, len(ys))
	}
	if len(zs) < n {
		return fmt.Errorf("core: func2 %q: CallN output slice %d shorter than input %d", f.cfg.Name, len(zs), n)
	}
	if n == 0 {
		return nil
	}
	st := f.state.Load()
	o := f.stageExecuteBatch(n)
	if o.forced {
		// Breaker open: the whole batch runs precise, monitoring
		// suspended.
		for i := 0; i < n; i++ {
			zs[i] = f.precise(xs[i], ys[i])
		}
		return nil
	}
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		v := f.selectVersion(st, x, y)
		if i != o.monitorAt {
			if v == model.PreciseVersion {
				zs[i] = f.precise(x, y)
			} else {
				zs[i] = f.versions[v](x, y)
			}
			continue
		}
		zs[i] = f.member(obs{seq: o.first + int64(i), monitor: true, probe: o.probe}, v, x, y)
		st = f.state.Load()
	}
	return nil
}

// Sensitivity implements Unit: the mean modeled loss improvement per
// unit of relative work increase when shifting each covered grid cell's
// selected version one step more precise.
func (f *Func2) Sensitivity() float64 {
	st := f.state.Load()
	m := f.cfg.Model
	cells := m.Grid.NX * m.Grid.NY

	var dLoss, dWork float64
	n := 0
	for idx := 0; idx < cells; idx++ {
		// Cheapest version meeting the SLA in this cell (SelectVersion's
		// rule), then the recalibration offset, as selectVersion applies.
		base := model.PreciseVersion
		bestWork := m.PreciseWork
		for vi := range m.Versions {
			v := &m.Versions[vi]
			if v.Loss[idx] <= f.cfg.SLA && v.Work < bestWork {
				base = vi
				bestWork = v.Work
			}
		}
		if base == model.PreciseVersion {
			continue
		}
		cur := base + st.offset
		if cur < 0 {
			cur = 0
		}
		if cur >= len(m.Versions) {
			continue // already precise here
		}
		lossCur := m.Versions[cur].Loss[idx]
		if !finite(lossCur) {
			continue // uncalibrated cell
		}
		var lossUp, workUp float64
		if cur+1 >= len(m.Versions) {
			lossUp, workUp = 0, m.PreciseWork
		} else {
			lossUp, workUp = m.Versions[cur+1].Loss[idx], m.Versions[cur+1].Work
			if !finite(lossUp) {
				lossUp = 0
			}
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

// SiteSet manages per-call-site controllers for one approximated
// function. Each Site shares the model and implementations but owns its
// recalibration offset, sampling counter, and statistics.
type SiteSet struct {
	cfg      FuncConfig
	precise  Fn
	versions []Fn

	mu    sync.Mutex
	sites map[string]*Func
}

// NewSiteSet prepares per-site controllers; the arguments mirror NewFunc.
func NewSiteSet(cfg FuncConfig, precise Fn, approx []Fn) (*SiteSet, error) {
	// Validate eagerly by constructing (and discarding) one controller.
	if _, err := NewFunc(cfg, precise, approx); err != nil {
		return nil, err
	}
	return &SiteSet{
		cfg:      cfg,
		precise:  precise,
		versions: append([]Fn(nil), approx...),
		sites:    make(map[string]*Func),
	}, nil
}

// Site returns the controller for the named call site, creating it on
// first use. Each site carries the paper's per-function logic but with
// independent recalibration state.
func (s *SiteSet) Site(name string) *Func {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.sites[name]; ok {
		return f
	}
	cfg := s.cfg
	cfg.Name = s.cfg.Name + "@" + name
	f, err := NewFunc(cfg, s.precise, s.versions)
	if err != nil {
		// NewSiteSet validated the configuration; a failure here is a
		// programming error.
		panic("core: site construction failed after validation: " + err.Error())
	}
	s.sites[name] = f
	return f
}

// Sites returns the names of the instantiated call sites.
func (s *SiteSet) Sites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sites))
	for n := range s.sites {
		names = append(names, n)
	}
	return names
}
