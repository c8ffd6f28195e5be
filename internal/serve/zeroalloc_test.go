package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"green/internal/search"
)

// nullRW is a ResponseWriter whose warm-path methods touch no
// allocator: the header map is preallocated and the body is discarded.
// httptest.ResponseRecorder is unsuitable for an allocation gate — its
// Body buffer grows per request.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullRW) WriteHeader(int)             {}

// TestServeWarmPathZeroAlloc is the serve-path allocation gate
// (enforced again by scripts/check.sh): once the query cache and the
// scratch pools are warm, a /search request must not allocate. The
// sample interval is pushed out of reach so the measured path is the
// steady (non-monitored) one — the same regime the ServeQPS benchmark
// measures.
func TestServeWarmPathZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates; the allocation budget only holds in a plain build")
	}
	s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 2000,
		SampleInterval: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	h := s.withResilience(s.handleSearch)
	req := httptest.NewRequest(http.MethodGet, "/search?q=alpha+beta", nil)
	w := &nullRW{h: make(http.Header, 4)}
	for i := 0; i < 16; i++ {
		h(w, req) // warm the query cache, scratch pools, and buffers
	}
	avg := testing.AllocsPerRun(200, func() { h(w, req) })
	if avg != 0 {
		t.Fatalf("warm /search path allocates %.2f times per request, want 0", avg)
	}
}

// TestMonitoredJudgementZeroAlloc guards the monitored request's QoS
// judgement: Record and Loss read the served scan's own pages into the
// pooled adapter's buffers instead of rerunning the query, so once warm
// they allocate nothing.
func TestMonitoredJudgementZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates; the allocation budget only holds in a plain build")
	}
	s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	q := search.Query{Terms: s.termsOf("alpha beta gamma")}
	var scan search.Scan
	judge := func() {
		qos := serveQoSPool.Get().(*serveQoS)
		qos.engine, qos.query, qos.topN = s.engine, q, s.cfg.TopN
		scan.Reset(s.engine, q, s.cfg.TopN)
		qos.scan = &scan
		scan.StepN(20)
		qos.Record(scan.Processed())
		for scan.Step() {
		}
		qos.complete = true
		_ = qos.Loss(scan.Processed())
		qos.release()
	}
	for i := 0; i < 16; i++ {
		judge()
	}
	if avg := testing.AllocsPerRun(200, judge); avg != 0 {
		t.Fatalf("monitored QoS judgement allocates %.2f times, want 0", avg)
	}
}
