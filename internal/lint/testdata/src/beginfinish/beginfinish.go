// Package beginfinish is a greenlint fixture: execution handles from
// Loop.Begin that never reach Finish.
package beginfinish

import "green/internal/core"

// leak starts an execution and forgets the epilogue entirely.
func leak(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q) // want "never called"
	if err != nil {
		return
	}
	for i := 0; i < 100 && exec.Continue(i); i++ {
	}
	// missing exec.Finish(i)
}

// discard throws the handle away at the call site.
func discard(l *core.Loop, q core.LoopQoS) {
	_, _ = l.Begin(q) // want "discarded"
}

// bare does not even bind the results.
func bare(l *core.Loop, q core.LoopQoS) {
	l.Begin(q) // want "discarded"
}

// ok is the correct protocol and must not be reported.
func ok(l *core.Loop, q core.LoopQoS) int {
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

// deferred finishes via defer and must not be reported.
func deferred(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	defer exec.Finish(100)
	for i := 0; i < 100 && exec.Continue(i); i++ {
	}
}

// escapes hands the handle to another function; conservatively clean.
func escapes(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	finishElsewhere(exec)
}

func finishElsewhere(e *core.LoopExec) {
	e.Finish(0)
}

// leakFeat is leak through ExecFeat, which returns the same pooled
// handle as Begin.
func leakFeat(l *core.Loop, q core.LoopQoS, f core.Features) {
	exec, err := l.ExecFeat(q, f) // want "never called in this function; the execution handle from Loop.ExecFeat leaks"
	if err != nil {
		return
	}
	for i := 0; i < 100 && exec.Continue(i); i++ {
	}
}

// okFeat is the correct protocol through ExecFeat.
func okFeat(l *core.Loop, q core.LoopQoS, f core.Features) {
	exec, err := l.ExecFeat(q, f)
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	exec.Finish(i)
}
