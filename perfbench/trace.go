package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, one per layer boundary the benchmark wraps. The
// generator's own span of a request is its open-loop record, from send
// to the last body byte.
const (
	kindServe     = "serve"     // serve.Server.Handler (single server or shard worker)
	kindCoord     = "cluster"   // cluster.Coordinator.Handler
	kindDo        = "do"        // cluster.Transport.Do, one per attempt
	kindAggregate = "aggregate" // cluster.Coordinator.AggregateOnce
	kindSearch    = "search"    // search.Engine.Search (replay)
	kindQuote     = "quote"     // one pricing request through core.Func.Call
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
// Times are Unix nanoseconds, comparable across the benchmark's
// processes on one machine.
type span struct {
	Kind   string `json:"k"`
	Req    int64  `json:"r,omitempty"`
	ID     int64  `json:"id"`
	Parent int64  `json:"p,omitempty"`
	Start  int64  `json:"s"`
	End    int64  `json:"e"`
	Bytes  int    `json:"b,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the process writes them out at
// exit. Recording can be switched off, so one process can serve an
// untraced and a traced pass.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// enabled is nil-safe: an untraced process has no tracer.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}
