// Package handleescape is a greenlint fixture: pooled LoopExec handles
// escaping the frame that called Begin — use-after-recycle bugs once
// Finish returns the handle to the pool.
package handleescape

import "green/internal/core"

// globalExec is the worst case: a package-level parking spot.
var globalExec *core.LoopExec

type session struct {
	exec *core.LoopExec
}

// returned hands the pooled handle to the caller; the pool can recycle
// it under the caller's feet after any Finish.
func returned(l *core.Loop, q core.LoopQoS) *core.LoopExec {
	exec, err := l.Begin(q)
	if err != nil {
		return nil
	}
	return exec // want "returned from the function"
}

// storedGlobal parks the handle in a package-level variable.
func storedGlobal(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	globalExec = exec // want "stored in a package-level variable"
}

// storedField parks the handle in a struct that outlives the frame.
func storedField(l *core.Loop, q core.LoopQoS, s *session) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	s.exec = exec // want "stored in a struct field"
}

// goroutineClosure captures the handle in a goroutine: by the time the
// goroutine runs, Finish may have recycled the handle for another
// execution.
func goroutineClosure(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	go func() {
		exec.Finish(0) // want "captured by a goroutine closure"
	}()
}

// channelSend ships the handle to whoever reads the channel.
func channelSend(l *core.Loop, q core.LoopQoS, ch chan *core.LoopExec) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	ch <- exec // want "sent on a channel"
}

// ok is the whole protocol in-frame: nothing to report.
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

// okDeferClosure: a deferred closure runs inside this frame at return;
// that capture is the idiomatic epilogue, not an escape.
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

// okHelper passes the handle to a synchronous helper; the callee returns
// before the frame dies, so this stays unreported (finishpath simply
// stops tracking it).
func okHelper(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	finishElsewhere(exec)
}

func finishElsewhere(e *core.LoopExec) {
	e.Finish(0)
}

// suppressed is a real escape with a reviewed justification attached.
func suppressed(l *core.Loop, q core.LoopQoS) *core.LoopExec {
	exec, err := l.Begin(q)
	if err != nil {
		return nil
	}
	//greenlint:ignore handleescape fixture demonstrating an audited suppression
	return exec
}

// returnedFeat is returned through ExecFeat, which hands out the same
// pooled handle as Begin.
func returnedFeat(l *core.Loop, q core.LoopQoS, f core.Features) *core.LoopExec {
	exec, err := l.ExecFeat(q, f)
	if err != nil {
		return nil
	}
	return exec // want "returned from the function"
}
