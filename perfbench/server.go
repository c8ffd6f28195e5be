package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"green/internal/cluster"
	greenmetrics "green/internal/metrics"
	"green/internal/serve"
	"green/internal/workload"
)

// The server process hosts the program under test exactly as
// cmd/greenserve builds it (serve.New or cluster.New, then http.Server
// on a loopback listener). It is driven over stdin/stdout, one command
// and one reply per line: "snap" (counters), "trace on|off", "stop".

const (
	// corpusSeed is greenserve's default corpus seed. The corpus is the
	// deployed index, not an input, so it does not vary with --seed.
	corpusSeed = 42
	shardCount = 3
	// aggregateEvery drives the cluster control plane by query count
	// instead of the wall-clock ticker, so budget pushes land at the
	// same point of the query sequence on every run.
	aggregateEvery = 1000
	hdrReq         = "X-Bench-Req"
	hdrParent      = "X-Bench-Parent"
	replayQueries  = 2000
)

// readyMsg is the server process's first line.
type readyMsg struct {
	URL        string `json:"url"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// serverSnap is the reply to "snap": cumulative counters of the server
// process, differenced by the generator across phases.
type serverSnap struct {
	Allocs   uint64      `json:"allocs"`
	GCCPU    float64     `json:"gc_cpu_s"`
	TotalCPU float64     `json:"total_cpu_s"`
	Serve    []serveSnap `json:"serve"`
	Coord    *coordSnap  `json:"coord,omitempty"`
}

type serveSnap struct {
	Searches    int64                    `json:"searches"`
	LevelSum    float64                  `json:"level_sum"`
	Recals      int64                    `json:"recals"`
	ApproxPages int64                    `json:"approx_pages"`
	Executions  int64                    `json:"executions"`
	Monitored   int64                    `json:"monitored"`
	MeanLoss    float64                  `json:"mean_loss"`
	Ops         greenmetrics.OpsSnapshot `json:"ops"`
}

type coordSnap struct {
	Queries   int64                    `json:"queries"`
	Ops       greenmetrics.OpsSnapshot `json:"ops"`
	Hedges    int64                    `json:"hedges"`
	AggMillis []float64                `json:"agg_ms"`
	AggPushes int                      `json:"agg_pushes"`
	AggErrors int                      `json:"agg_errors"`
}

// stopMsg is the reply to "stop".
type stopMsg struct {
	Spans     string  `json:"spans,omitempty"`
	NsPerDoc  float64 `json:"ns_per_doc"`
	ReplayLvl float64 `json:"replay_level"`
}

type serverProc struct {
	tr      *tracer
	spans   string
	taps    []*serveTap
	co      *cluster.Coordinator
	coTap   *coordTap
	servers []*http.Server
	url     string
}

func runServer(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	wl := fs.String("workload", "search", "search or cluster")
	traced := fs.Bool("trace", false, "wrap the layers with span recording")
	spans := fs.String("spans", "", "file the spans are written to at stop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// GOMAXPROCS follows the CPUs the process may use, as it would had
	// the process started with the mask.
	cpus := cpuHalf(true)
	if err := pinSelf(cpus); err != nil {
		return err
	}
	if len(cpus) > 0 {
		runtime.GOMAXPROCS(len(cpus))
	}
	p := &serverProc{spans: *spans}
	if *traced {
		p.tr = &tracer{}
	}
	var err error
	switch *wl {
	case "search":
		err = p.startSearch()
	case "cluster":
		err = p.startCluster()
	default:
		err = fmt.Errorf("unknown server workload %q", *wl)
	}
	if err != nil {
		p.shutdown()
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(prefix string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s %s\n", prefix, b)
		return out.Flush()
	}
	if err := reply("ready", readyMsg{URL: p.url, GOMAXPROCS: runtime.GOMAXPROCS(0)}); err != nil {
		p.shutdown()
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch cmd := in.Text(); cmd {
		case "snap":
			err = reply("snap", p.snap())
		case "trace on", "trace off":
			if p.tr != nil {
				p.tr.on.Store(cmd == "trace on")
			}
			err = reply("ok", struct{}{})
		case "stop":
			p.shutdown()
			msg, serr := p.finish()
			if serr != nil {
				return serr
			}
			return reply("stopped", msg)
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			p.shutdown()
			return err
		}
	}
	// Stdin closed without "stop": the generator is gone.
	p.shutdown()
	return errors.New("server: stdin closed")
}

// listen serves h on a loopback listener and returns its base URL.
func (p *serverProc) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	p.servers = append(p.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at shutdown
	return "http://" + ln.Addr().String(), nil
}

func (p *serverProc) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range p.servers {
		_ = s.Shutdown(ctx) // best effort: the process exits next
	}
	p.servers = nil
}

func (p *serverProc) startSearch() error {
	s, err := serve.New(serve.Config{Seed: corpusSeed})
	if err != nil {
		return err
	}
	tap := &serveTap{srv: s, h: s.Handler(), tr: p.tr}
	p.taps = []*serveTap{tap}
	p.url, err = p.listen(tap.handler())
	return err
}

func (p *serverProc) startCluster() error {
	// The workers build concurrently, as separate greenserve processes
	// would.
	workers := make([]*serve.Server, shardCount)
	errs := make([]error, shardCount)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workers[i], errs[i] = serve.New(serve.Config{Seed: corpusSeed, ShardIndex: i, ShardCount: shardCount})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var specs []cluster.ShardSpec
	for i, s := range workers {
		tap := &serveTap{srv: s, h: s.Handler(), tr: p.tr}
		p.taps = append(p.taps, tap)
		u, err := p.listen(tap.handler())
		if err != nil {
			return err
		}
		specs = append(specs, cluster.ShardSpec{Name: fmt.Sprintf("shard%d", i), Replicas: []string{u}})
	}
	cfg := cluster.Config{Shards: specs, Seed: corpusSeed}
	if p.tr != nil {
		cfg.Transport = &tracedTransport{
			inner: &cluster.HTTPTransport{Client: &http.Client{Transport: idRoundTripper{http.DefaultTransport}}},
			tr:    p.tr,
		}
	}
	co, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	p.co = co
	p.coTap = &coordTap{co: co, h: co.Handler(), tr: p.tr}
	p.url, err = p.listen(p.coTap)
	return err
}

// snap collects the process's runtime counters and every layer's
// counters.
func (p *serverProc) snap() serverSnap {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var out serverSnap
	if samples[0].Value.Kind() == metrics.KindUint64 {
		out.Allocs = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		out.GCCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		out.TotalCPU = samples[2].Value.Float64()
	}
	for _, t := range p.taps {
		out.Serve = append(out.Serve, t.snap())
	}
	if p.co != nil {
		out.Coord = p.coTap.snap()
	}
	return out
}

// finish writes the spans and, in a traced run, replays Engine.Search on
// the engine's own query stream at the mean level served so far.
func (p *serverProc) finish() (stopMsg, error) {
	var msg stopMsg
	if p.tr == nil {
		return msg, nil
	}
	tap := p.taps[0]
	st := tap.snap()
	if st.Searches > 0 {
		msg.ReplayLvl = st.LevelSum / float64(st.Searches)
	}
	e := tap.srv.Engine()
	qs, err := e.GenerateQueries(workload.Split(corpusSeed, 99), replayQueries)
	if err != nil {
		return msg, err
	}
	level := int(msg.ReplayLvl)
	var docs, nanos int64
	for i, q := range qs {
		start := time.Now()
		_, n := e.Search(q, 10, level)
		end := time.Now()
		p.tr.add(span{Kind: kindSearch, ID: p.tr.newID(), Req: int64(i), Start: start.UnixNano(), End: end.UnixNano()})
		docs += int64(n)
		nanos += end.Sub(start).Nanoseconds()
	}
	if docs > 0 {
		msg.NsPerDoc = float64(nanos) / float64(docs)
	}
	if p.spans != "" {
		if err := writeSpans(p.spans, p.tr.snapshot()); err != nil {
			return msg, err
		}
		msg.Spans = p.spans
	}
	return msg, nil
}

// serveTap wraps one serve.Server's handler. In a traced process it
// records a span per /search request and samples the match loop's level
// and recalibration sequence after each one; untraced, it is the bare
// handler.
type serveTap struct {
	srv *serve.Server
	h   http.Handler
	tr  *tracer

	mu          sync.Mutex
	searches    int64
	levelSum    float64
	recals      recalCounter
	approxPages int64
}

func (t *serveTap) handler() http.Handler {
	if t.tr == nil {
		return t.h
	}
	return t
}

var approxMark = []byte(`"approximated":true`)

type sniffWriter struct {
	http.ResponseWriter
	approx bool
}

func (w *sniffWriter) Write(b []byte) (int, error) {
	w.approx = w.approx || bytes.Contains(b, approxMark)
	return w.ResponseWriter.Write(b)
}

func (t *serveTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/search" {
		t.h.ServeHTTP(w, r)
		return
	}
	sw := &sniffWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(sw, r)
	end := time.Now()
	loop := t.srv.Loop()
	level := loop.Level()
	t.mu.Lock()
	t.searches++
	t.levelSum += level
	t.recals.observe(loop)
	if sw.approx {
		t.approxPages++
	}
	t.mu.Unlock()
	if t.tr.enabled() {
		t.tr.add(span{
			Kind: kindServe, ID: t.tr.newID(),
			Req:    headerInt(r, hdrReq),
			Parent: headerInt(r, hdrParent),
			Start:  start.UnixNano(), End: end.UnixNano(),
		})
	}
}

func (t *serveTap) snap() serveSnap {
	execs, monitored, loss := t.srv.Loop().Stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	return serveSnap{
		Searches: t.searches, LevelSum: t.levelSum, Recals: t.recals.n, ApproxPages: t.approxPages,
		Executions: execs, Monitored: monitored, MeanLoss: loss,
		Ops: t.srv.Ops().Snapshot(),
	}
}

func headerInt(r *http.Request, name string) int64 {
	v, _ := strconv.ParseInt(r.Header.Get(name), 10, 64)
	return v
}

// traceIDs travels in a request context from the coordinator's handler
// through Transport.Do to the RoundTripper that puts it on the wire.
type traceIDs struct{ req, parent int64 }

type traceKey struct{}

// coordTap wraps the coordinator's handler: it runs the control plane
// every aggregateEvery queries and, when tracing, records the
// coordinator span and hands the request id to the shard calls.
type coordTap struct {
	co *cluster.Coordinator
	h  http.Handler
	tr *tracer

	queries atomic.Int64
	mu      sync.Mutex
	aggMs   []float64
	pushes  int
	aggErrs int
}

func (t *coordTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/search" {
		t.h.ServeHTTP(w, r)
		return
	}
	if t.tr.enabled() {
		ids := traceIDs{req: headerInt(r, hdrReq), parent: t.tr.newID()}
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, ids))
		start := time.Now()
		t.h.ServeHTTP(w, r)
		end := time.Now()
		t.tr.add(span{Kind: kindCoord, ID: ids.parent, Req: ids.req, Start: start.UnixNano(), End: end.UnixNano()})
	} else {
		t.h.ServeHTTP(w, r)
	}
	// The reply is flushed first, so the client is not charged for the
	// round. net/http reads a connection's next request only after this
	// handler returns, so on one connection the next query still sees
	// the pushed budgets.
	if t.queries.Add(1)%aggregateEvery == 0 {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		t.aggregate()
	}
}

func (t *coordTap) aggregate() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	rep, err := t.co.AggregateOnce(ctx)
	end := time.Now()
	if t.tr != nil {
		t.tr.add(span{Kind: kindAggregate, ID: t.tr.newID(), Start: start.UnixNano(), End: end.UnixNano()})
	}
	t.mu.Lock()
	t.aggMs = append(t.aggMs, float64(end.Sub(start).Nanoseconds())/1e6)
	t.pushes += rep.Pushes
	if err != nil {
		t.aggErrs++
	}
	t.mu.Unlock()
}

func (t *coordTap) snap() *coordSnap {
	var st struct {
		Shards []struct {
			Hedges int64 `json:"hedges"`
		} `json:"shards"`
	}
	rec := httptest.NewRecorder()
	t.co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	_ = json.Unmarshal(rec.Body.Bytes(), &st) // hedges stay 0 if /stats changes shape
	out := &coordSnap{Queries: t.queries.Load(), Ops: t.co.Ops().Snapshot()}
	for _, s := range st.Shards {
		out.Hedges += s.Hedges
	}
	t.mu.Lock()
	out.AggMillis = append([]float64(nil), t.aggMs...)
	out.AggPushes, out.AggErrors = t.pushes, t.aggErrs
	t.mu.Unlock()
	return out
}

// tracedTransport records a span around every cluster.Transport.Do
// attempt and passes its id on as the parent of the worker's span.
type tracedTransport struct {
	inner cluster.Transport
	tr    *tracer
}

func (t *tracedTransport) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	ids, ok := ctx.Value(traceKey{}).(traceIDs)
	if !ok || !t.tr.enabled() {
		return t.inner.Do(ctx, method, base, path, reqBody, deadline, buf)
	}
	id := t.tr.newID()
	ctx = context.WithValue(ctx, traceKey{}, traceIDs{req: ids.req, parent: id})
	n0 := len(buf)
	start := time.Now()
	status, body, err := t.inner.Do(ctx, method, base, path, reqBody, deadline, buf)
	end := time.Now()
	t.tr.add(span{Kind: kindDo, ID: id, Req: ids.req, Parent: ids.parent, Start: start.UnixNano(), End: end.UnixNano(), Bytes: len(body) - n0})
	return status, body, err
}

// idRoundTripper puts the request id and parent span id from the
// context on the outgoing shard request.
type idRoundTripper struct{ base http.RoundTripper }

func (t idRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(traceKey{}).(traceIDs); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(ids.req, 10))
		r.Header.Set(hdrParent, strconv.FormatInt(ids.parent, 10))
	}
	return t.base.RoundTrip(r)
}
