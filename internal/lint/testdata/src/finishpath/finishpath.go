// Package finishpath is a greenlint fixture: execution handles whose
// Finish is present in the function but missing (or doubled) on some
// control-flow path — exactly the cases the block-local beginfinish
// check accepts.
package finishpath

import (
	"errors"

	"green/internal/core"
)

var errTimeout = errors.New("timeout")

// earlyReturnLeak has a Finish, so beginfinish is satisfied — but the
// timeout path returns without it. This is the canonical finding the
// path-sensitive upgrade exists for.
func earlyReturnLeak(l *core.Loop, q core.LoopQoS, slow func() bool) error {
	exec, err := l.Begin(q) // want "reaches a function exit without exec.Finish"
	if err != nil {
		return err
	}
	i := 0
	for ; exec.Continue(i); i++ {
		if slow() {
			return errTimeout // leaks the pooled handle
		}
	}
	exec.Finish(i)
	return nil
}

// branchLeak finishes on one arm of a conditional only.
func branchLeak(l *core.Loop, q core.LoopQoS, flag bool) {
	exec, err := l.Begin(q) // want "reaches a function exit without exec.Finish"
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	if flag {
		exec.Finish(i)
	}
}

// doubleFinish calls Finish again on the path where it already ran.
func doubleFinish(l *core.Loop, q core.LoopQoS, flag bool) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	if flag {
		exec.Finish(i)
	}
	exec.Finish(i) // want "may already have run on some path"
}

// loopDoubleFinish finishes once per iteration of an outer loop for a
// single Begin: the second iteration is a double Finish — and the
// zero-iteration path (n <= 0) exits without any Finish at all, so the
// same Begin also leaks. Both findings are correct.
func loopDoubleFinish(l *core.Loop, q core.LoopQoS, n int) {
	exec, err := l.Begin(q) // want "reaches a function exit without exec.Finish"
	if err != nil {
		return
	}
	for j := 0; j < n; j++ {
		exec.Finish(j) // want "may already have run on some path"
	}
}

// okErrGuard is the canonical protocol: the error-path return must not
// count as a leaking exit, because the handle is nil there.
func okErrGuard(l *core.Loop, q core.LoopQoS) int {
	exec, err := l.Begin(q)
	if err != nil {
		return 0
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	exec.Finish(i)
	return i
}

// okDefer covers every exit, early returns included, with one deferred
// Finish.
func okDefer(l *core.Loop, q core.LoopQoS, slow func() bool) error {
	exec, err := l.Begin(q)
	if err != nil {
		return err
	}
	defer exec.Finish(100)
	for i := 0; i < 100 && exec.Continue(i); i++ {
		if slow() {
			return errTimeout
		}
	}
	return nil
}

// okDeferClosure finishes through a deferred closure, the other common
// spelling of the epilogue.
func okDeferClosure(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	n := 0
	defer func() { exec.Finish(n) }()
	for ; exec.Continue(n); n++ {
	}
}

// okPanicPath: panic exits are not leaks (a deferred Finish upstream
// would cover them; demanding one here would flag every guard clause).
func okPanicPath(l *core.Loop, q core.LoopQoS, bad bool) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	if bad {
		panic("invariant violated")
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	exec.Finish(i)
}

// okSwitch finishes on every case of a switch.
func okSwitch(l *core.Loop, q core.LoopQoS, mode int) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	switch mode {
	case 0:
		exec.Finish(i)
	default:
		exec.Finish(0)
	}
}

// okBeginInRange begins and finishes a fresh handle on every iteration
// of a range loop — the operational serving pattern. The back edge must
// not replay the body's Finish at the loop head (which would read as a
// double), nor may the per-iteration re-Begin read as a leak.
func okBeginInRange(l *core.Loop, queries []core.LoopQoS) int {
	total := 0
	for _, q := range queries {
		exec, err := l.Begin(q)
		if err != nil {
			continue
		}
		i := 0
		for ; exec.Continue(i); i++ {
		}
		exec.Finish(i)
		total += i
	}
	return total
}

// suppressedLeak is a true finding carrying a reviewed justification; the
// directive mutes it, so no diagnostic may surface.
func suppressedLeak(l *core.Loop, q core.LoopQoS, slow func() bool) error {
	//greenlint:ignore finishpath fixture demonstrating an audited suppression
	exec, err := l.Begin(q)
	if err != nil {
		return err
	}
	i := 0
	for ; exec.Continue(i); i++ {
		if slow() {
			return errTimeout
		}
	}
	exec.Finish(i)
	return nil
}

// branchLeakFeat is branchLeak through ExecFeat: the handle is finished
// on one arm only.
func branchLeakFeat(l *core.Loop, q core.LoopQoS, f core.Features, flag bool) {
	exec, err := l.ExecFeat(q, f) // want "some path from this Loop.ExecFeat reaches a function exit without exec.Finish"
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	if flag {
		exec.Finish(i)
	}
}
