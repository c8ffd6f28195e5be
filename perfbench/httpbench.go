package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"green/internal/serve"
)

// httpWorkload is a serving workload: the server process, the open-loop
// rate and the latency limit.
type httpWorkload struct {
	name     string
	rate     float64       // open-loop requests per second
	limit    time.Duration // latency limit for slo_attain
	qualityN int           // quality-phase queries, in order over one connection
}

var httpWorkloads = map[string]httpWorkload{
	"search":  {name: "search", rate: 2000, limit: 5 * time.Millisecond, qualityN: 20000},
	"cluster": {name: "cluster", rate: 500, limit: 10 * time.Millisecond, qualityN: 20000},
}

const (
	generatorGCPercent = 1000
	setupRepeats       = 5
	topN               = 10
	tpPool             = 50000 // throughput-phase queries, cycled
)

// conn is one keep-alive connection of the generator.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

// newConns returns n clients of one connection each, counting dials.
func newConns(n int, dials *atomic.Int64) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		d := &net.Dialer{Timeout: 5 * time.Second}
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}
		cs[i] = &conn{client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// get sends one request and reads the whole body. id, when nonzero, is
// sent as the request id header.
func (c *conn) get(url string, id int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if id != 0 {
		req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// failures classifies what went wrong, over everything sent.
type failures struct {
	transport, status, shed, check atomic.Int64
}

func (f *failures) total() int64 {
	return f.transport.Load() + f.status.Load() + f.shed.Load() + f.check.Load()
}

// precisePages computes the precise page of every query with an
// unsharded serve server with approximation disabled, called in process.
func precisePages(queries ...[]string) (map[string][]int, int, error) {
	s, err := serve.New(serve.Config{Seed: corpusSeed, Disabled: true})
	if err != nil {
		return nil, 0, err
	}
	h := s.Handler()
	c := &checker{topN: topN, docs: s.Engine().Docs()}
	ref := make(map[string][]int)
	for _, qs := range queries {
		for _, q := range qs {
			if _, ok := ref[q]; ok {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q, nil))
			if rec.Code != http.StatusOK {
				return nil, 0, fmt.Errorf("precise reference: %q: status %d", q, rec.Code)
			}
			p, err := c.parse(rec.Body.Bytes())
			if err != nil {
				return nil, 0, fmt.Errorf("precise reference: %q: %v", q, err)
			}
			ref[q] = p.Docs
		}
	}
	return ref, s.Engine().Docs(), nil
}

// httpRun carries one serving run's state between phases.
type httpRun struct {
	wl    httpWorkload
	rep   *report
	url   string
	chk   *checker
	fails failures
	dials atomic.Int64
	sent  atomic.Int64
}

// send issues one /search request, checks the reply and counts failures.
func (h *httpRun) send(c *conn, q string, id int64) (page, bool) {
	h.sent.Add(1)
	status, body, err := c.get(h.url+"/search?q="+q, id)
	switch {
	case err != nil:
		h.fails.transport.Add(1)
		return page{}, false
	case status == http.StatusServiceUnavailable:
		h.fails.shed.Add(1)
		return page{}, false
	case status != http.StatusOK:
		h.fails.status.Add(1)
		return page{}, false
	}
	p, err := h.chk.check(q, body)
	if err != nil {
		if h.fails.check.Add(1) <= 5 {
			h.rep.problem("%s: %v", q, err)
		}
		return p, false
	}
	return p, true
}

// latencyPass is one open-loop pass over qs at the workload's rate.
func (h *httpRun) latencyPass(conns []*conn, qs []string, traced bool) []record {
	clk := newWallClock()
	sched := schedule{start: clk.Now() + 20*time.Millisecond, rate: h.wl.rate, n: len(qs)}
	return openLoop(clk, sched, len(conns), func(w, i int) bool {
		var id int64 // only the traced segment's requests carry ids, from 1
		if traced {
			id = int64(i) + 1
		}
		_, ok := h.send(conns[w], qs[i], id)
		return ok
	})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func runHTTP(root string, wl httpWorkload, env envRecord) (*report, error) {
	// The generator's collector would otherwise run a ~10ms mark phase
	// on the generator's CPU every few hundred milliseconds, making about
	// one request in a hundred late. Collecting seldom, and before each
	// latency segment, keeps its pauses out of the measured segments.
	debug.SetGCPercent(generatorGCPercent)
	env.GenCPUs, env.SrvCPUs = cpuHalf(false), cpuHalf(true)
	if err := pinSelf(env.GenCPUs); err != nil {
		return nil, err
	}
	plan := newLoadPlan(wl.rate, wl.limit, env.Seconds)
	plan.record(&env)
	env.Connections, env.QualityN, env.SetupRepeats = runtime.NumCPU(), wl.qualityN, setupRepeats
	rep := newReport(env)
	h := &httpRun{wl: wl, rep: rep}

	// The quality phase replays one fixed query log, so qos_loss and
	// cpu_us_per_query are measured on the same pages on every run;
	// --seed draws the latency and throughput phases' queries.
	words := newVocab(vocabSeed, vocabSize)
	qgen, err := newQueryGen(words, qualitySeed)
	if err != nil {
		return nil, err
	}
	quality := qgen.take(wl.qualityN)
	gen, err := newQueryGen(words, env.Seed)
	if err != nil {
		return nil, err
	}
	latencyQs := gen.take(plan.latencyRequests())
	tpQs := gen.take(tpPool)

	// qos_loss compares each quality page with its precise page. A
	// single server's page says whether it was approximated, so on
	// search every page the run sends is checked against its precise
	// page too; the coordinator's merged page does not say.
	approxFlag := wl.name == "search"
	refQs := [][]string{quality}
	if approxFlag {
		refQs = append(refQs, latencyQs, tpQs)
	}
	t0 := time.Now()
	ref, docs, err := precisePages(refQs...)
	if err != nil {
		return nil, err
	}
	rep.note("precise reference: %d distinct queries in %.2fs", len(ref), time.Since(t0).Seconds())
	h.chk = &checker{topN: topN, docs: docs, precise: ref, approxFlag: approxFlag}
	runtime.GC() // drop the reference server before measuring

	// Setup: start the server process setupRepeats times; keep the last.
	traceDir := filepath.Join(root, ".bench_build", "trace")
	spansPath := filepath.Join(traceDir, wl.name+"-spans.jsonl")
	args := []string{"-workload", wl.name}
	if env.Trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-trace", "-spans", spansPath)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups dist
	var c *child
	for i := 0; i < setupRepeats; i++ {
		ch, d, err := startChild(exe, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			if _, err := ch.stop(); err != nil {
				return nil, err
			}
			continue
		}
		c = ch
	}
	m, err := h.measure(c, plan, quality, latencyQs, tpQs)
	if err != nil {
		c.kill()
		return nil, err
	}
	stopped, err := c.stop()
	if err != nil {
		return nil, err
	}
	rep.env.SrvMaxProcs = c.ready.GOMAXPROCS
	rep.e2e["setup_s"] = setups.median()
	rep.note("setup_s samples %v", setups)

	if env.Trace {
		spans, err := readSpans(stopped.Spans)
		if err != nil {
			return nil, err
		}
		m.layers(rep, spans, stopped, h.dials.Load())
	}
	rep.attempted, rep.failed = h.sent.Load(), h.fails.total()
	rep.e2e["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.note("sent %d: transport errors %d, non-200 %d, shed %d, check failures %d (fail_frac %.6f)",
		rep.attempted, h.fails.transport.Load(), h.fails.status.Load(), h.fails.shed.Load(), h.fails.check.Load(),
		float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}

// httpMeasure holds what the phases measured, for the traced run's
// per-layer metrics.
type httpMeasure struct {
	wl             httpWorkload
	qualityPages   int
	docsScored     int64
	snapQ0, snapQ1 serverSnap // around the quality phase
	snapEnd        serverSnap // after the load phases
	tracedRecs     []record
	untracedP50    float64
}

// measure runs the quality, latency and throughput phases against a
// ready server process.
func (h *httpRun) measure(c *child, plan loadPlan, quality, latencyQs, tpQs []string) (*httpMeasure, error) {
	rep := h.rep
	h.url = c.ready.URL
	m := &httpMeasure{wl: h.wl}

	// Quality: the fixed log in order over one connection, so the
	// controllers see the same query order on every run.
	one := newConns(1, &h.dials)
	var err error
	if m.snapQ0, err = c.snap(); err != nil {
		return nil, err
	}
	pid := c.pid()
	cpu, err := newCPUMeter(func() (time.Duration, error) { return procCPU(pid) })
	if err != nil {
		return nil, err
	}
	differ := 0
	for _, q := range quality {
		p, ok := h.send(one[0], q, 0)
		if !ok {
			continue
		}
		m.qualityPages++
		m.docsScored += int64(p.DocsScored)
		if !equalDocs(p.Docs, h.chk.precise[q]) {
			differ++
		}
	}
	if m.snapQ1, err = c.snap(); err != nil {
		return nil, err
	}
	closeConns(one)
	if m.qualityPages == 0 {
		return nil, fmt.Errorf("no quality-phase page succeeded")
	}
	rep.e2e["qos_loss"] = float64(differ) / float64(m.qualityPages)
	rep.e2e["work_per_query"] = float64(m.docsScored) / float64(m.qualityPages)
	if err := cpu.report(rep, len(quality)); err != nil {
		return nil, err
	}
	rep.note("quality: %d pages, %d differ from the precise page, %.1f docs scored per query",
		m.qualityPages, differ, float64(m.docsScored)/float64(m.qualityPages))

	// Load: latency and throughput segments alternate over nproc
	// connections. The traced run then makes one traced latency
	// segment; its median against the untraced one is the tracing
	// overhead.
	conns := newConns(runtime.NumCPU(), &h.dials)
	defer closeConns(conns)
	open := func(first, n int, traced bool) []record {
		runtime.GC()
		return h.latencyPass(conns, latencyQs[first:first+n], traced)
	}
	tpNext := 0
	closed := func(dur time.Duration) int64 {
		sent, failed := closedLoop(newWallClock(), dur, len(conns), func(w, i int) bool {
			_, ok := h.send(conns[w], tpQs[(tpNext+i)%len(tpQs)], 0)
			return ok
		})
		tpNext += int(sent)
		return sent - failed
	}
	m.untracedP50 = runLoad(rep, plan, open, closed)
	if rep.env.Trace {
		if err := c.setTrace(true); err != nil {
			return nil, err
		}
		m.tracedRecs = open(0, plan.perSeg, true)
		if err := c.setTrace(false); err != nil {
			return nil, err
		}
	}
	if m.snapEnd, err = c.snap(); err != nil {
		return nil, err
	}

	hwm, err := vmHWM(c.pid())
	if err != nil {
		return nil, err
	}
	rep.e2e["rss_mb"] = hwm
	return m, nil
}
