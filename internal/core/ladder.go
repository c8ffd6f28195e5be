package core

import (
	"fmt"

	"green/internal/model"
)

// The version-ladder core shared by Func and Func2: both approximate by
// picking a version off an ordered ladder (Figure 7) and recalibrate by
// shifting a precision offset along it (see controller.go).

// ladderState is the immutable snapshot a version-ladder call reads with
// a single atomic load: Func's version-selection ranges (nil for Func2,
// whose grid lives in its model), the recalibration offset, and the
// disable flags. It is published through the embedded controller's
// copy-on-write protocol, so ordinary calls never contend on a lock.
type ladderState struct {
	ranges []model.Range
	offset int
	approxSwitch
}

// ladder is the controller core of a function kind with n approximate
// versions.
type ladder struct {
	controller[ladderState]

	n   int     // number of approximate versions
	qos FuncQoS // loss comparator (defaultFuncQoS when unset)
}

// initLadder wires the shared controller and publishes the initial
// snapshot.
func (c *ladder) initLadder(kind string, o ctrlOptions, n int, qos FuncQoS, st ladderState) error {
	if err := c.init(kind, o); err != nil {
		return err
	}
	c.n = n
	c.qos = qos
	if c.qos == nil {
		c.qos = defaultFuncQoS
	}
	c.state.Store(&st)
	return nil
}

// shift applies the snapshot's precision offset to a base version: the
// result is clamped at the cheapest version, and shifting past the most
// precise approximate version selects the precise function.
func (c *ladder) shift(st *ladderState, v int) int {
	if v == model.PreciseVersion {
		return v
	}
	v += st.offset
	if v >= c.n {
		return model.PreciseVersion
	}
	if v < 0 {
		v = 0
	}
	return v
}

// callMonitored runs one monitored call of version v (Figure 7's sampled
// path): the precise version, then — when an approximation was selected
// — version v and the QoS comparator, and feeds the loss to the Observe
// and Correct stages. eval(v) evaluates version v of the caller's
// function at its input (eval(model.PreciseVersion) is the precise
// function). The precise call runs bare — a panic there is the
// program's own and propagates as it would without Green — but the extra
// work the monitored path adds runs under recover: a panic is contained,
// the observation discarded, the breaker charged. It returns the precise
// result and whether version v ran to completion (for work accounting).
func (c *ladder) callMonitored(o obs, sd selDecision, v int, eval func(v int) float64) (y float64, approxRan bool) {
	y = eval(model.PreciseVersion)
	loss := 0.0
	panicked := false
	if v != model.PreciseVersion {
		if ya, ok := safeEval(eval, v); ok {
			approxRan = true
			if lv, ok := c.safeQoS(y, ya); ok {
				loss = lv
			} else {
				panicked = true
			}
		} else {
			panicked = true
		}
	}
	c.stageObserveCorrect(o, loss, panicked, sd, c.applyAction)
	return y, approxRan
}

// safeEval runs eval(v) under recover.
func safeEval(eval func(int) float64, v int) (y float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			y, ok = 0, false
		}
	}()
	return eval(v), true
}

// safeQoS runs the QoS comparator under recover.
func (c *ladder) safeQoS(yp, ya float64) (loss float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			loss, ok = 0, false
		}
	}()
	return c.qos(yp, ya), true
}

// applyAction shifts the precision offset for a recalibration action,
// clamped to ±n, and clears the model-driven disable (recalibration
// pressure can re-enable a site the model had given up on). It returns
// the post-action offset as the event's approximation level.
func (c *ladder) applyAction(st *ladderState, a Action) float64 {
	switch a {
	case ActIncrease:
		if st.offset < c.n {
			st.offset++
		}
		st.disabled = false
	case ActDecrease:
		if st.offset > -c.n {
			st.offset--
		}
		st.disabled = false
	}
	return float64(st.offset)
}

// Offset returns the current recalibration precision offset.
func (c *ladder) Offset() int { return c.state.Load().offset }

// Level reports the precision offset as the controller's approximation
// level (the registry's uniform scalar view; see registry.go).
func (c *ladder) Level() float64 { return float64(c.state.Load().offset) }

// IncreaseAccuracy implements Unit.
func (c *ladder) IncreaseAccuracy() bool { return c.adjust(ActIncrease, c.applyAction) }

// DecreaseAccuracy implements Unit.
func (c *ladder) DecreaseAccuracy() bool { return c.adjust(ActDecrease, c.applyAction) }

// snapshot reads the counter and offset state both kinds persist.
// Func2State is exactly that shared part; FuncState extends it.
func (c *ladder) snapshot(name string) Func2State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	return Func2State{
		Name:      name,
		Offset:    st.offset,
		Interval:  c.interval.Load(),
		Disabled:  st.disabled,
		ForceOff:  st.forceOff,
		Count:     c.count.Load(),
		Monitored: c.monitored.Load(),
		LossSum:   c.lossSum(),
	}
}

// restore validates s against this controller (its name, the offset
// against the ladder, the shared counters), runs the kind's own checks
// (extra, which may be nil), and only then installs s. kind ("func",
// "func2") prefixes the error text.
func (c *ladder) restore(kind, name string, s Func2State, extra func() error) error {
	if s.Name != name {
		return fmt.Errorf("core: state for %q cannot restore %s %q", s.Name, kind, name)
	}
	if err := validateOffset(kind, s.Offset, c.n); err != nil {
		return err
	}
	if err := validateCounters(kind, s.Interval, s.Count, s.Monitored, s.LossSum); err != nil {
		return err
	}
	if extra != nil {
		if err := extra(); err != nil {
			return err
		}
	}
	c.restoreCounters(s.Interval, s.Count, s.Monitored, s.LossSum, func(next *ladderState) {
		next.offset = s.Offset
		next.approxSwitch = approxSwitch{disabled: s.Disabled, forceOff: s.ForceOff}
	})
	return nil
}
