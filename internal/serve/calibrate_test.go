package serve

import (
	"reflect"
	"testing"

	"green/internal/core"
	"green/internal/metrics"
	"green/internal/model"
	"green/internal/search"
	"green/internal/workload"
)

// rerunCalibration is the reference calibration phase the one-scan sweep
// replaced: one precise run plus one capped rerun per knot, each scanning
// from the first document.
func rerunCalibration(t *testing.T, s *Server, name string, knots []float64, feat func(search.Query) core.Features, run func(q search.Query, maxDocs int) ([]int, int)) (*model.LoopModel, *core.LoopSelector) {
	t.Helper()
	calQueries, err := s.engine.GenerateQueries(workload.Split(s.cfg.Seed, 1), s.cfg.CalibrationQueries)
	if err != nil {
		t.Fatal(err)
	}
	baseLevel := float64(s.engine.Docs())
	cal, err := core.NewLoopCalibration(name, knots, baseLevel, baseLevel)
	if err != nil {
		t.Fatal(err)
	}
	if feat != nil {
		keys := make([]float64, 0, len(calQueries))
		for _, q := range calQueries {
			if f := feat(q); f.Valid {
				keys = append(keys, f.Key)
			}
		}
		edges := featureEdges(keys, selectorBuckets)
		if edges == nil {
			feat = nil
		} else if err := cal.FeatureBuckets(edges); err != nil {
			t.Fatal(err)
		}
	}
	losses := make([]float64, len(knots))
	work := make([]float64, len(knots))
	for _, q := range calQueries {
		precise, _ := run(q, 0)
		for i, k := range knots {
			approx, processed := run(q, int(k))
			losses[i] = metrics.QueryLoss(precise, approx)
			work[i] = float64(processed)
		}
		if feat != nil {
			err = cal.AddRunFeat(feat(q), losses, work)
		} else {
			err = cal.AddRun(losses, work)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := cal.Build()
	if err != nil {
		t.Fatal(err)
	}
	if feat == nil {
		return m, nil
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		t.Fatal(err)
	}
	return m, sel
}

// sameSelector compares two built selectors through their observable
// surface: bucket edges, correction factors, and the predicted loss of
// every bucket at every calibrated level.
func sameSelector(t *testing.T, got, want *core.LoopSelector, levels []float64) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("selector installed = %v, reference built one = %v", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	edges := want.Edges()
	if !reflect.DeepEqual(got.Edges(), edges) || !reflect.DeepEqual(got.Factors(), want.Factors()) {
		t.Fatalf("selector edges/factors %v/%v, reference %v/%v", got.Edges(), got.Factors(), edges, want.Factors())
	}
	for b := 0; b+1 < len(edges); b++ {
		f := core.Features{Key: (edges[b] + edges[b+1]) / 2, Valid: true}
		for _, l := range levels {
			if g, w := got.PredictLoss(f, l), want.PredictLoss(f, l); g != w {
				t.Fatalf("bucket %d level %v: predicted loss %v, reference %v", b, l, g, w)
			}
		}
	}
}

// TestCalibrationMatchesRerunReference is the differential test of the
// one-scan calibration: the models (and selector) New builds are
// identical to the ones the precise-plus-capped rerun loop builds, for
// the match loop alone, with the conjunctive loop, with the selector, and
// on each shard of three.
func TestCalibrationMatchesRerunReference(t *testing.T) {
	cfgs := map[string]Config{
		"default":  {Seed: 42, CalibrationQueries: 150},
		"and":      {Seed: 42, CalibrationQueries: 150, ApproxAnd: true},
		"selector": {Seed: 42, CalibrationQueries: 150, Selector: true},
		"shard0/3": {Seed: 42, CalibrationQueries: 150, ShardIndex: 0, ShardCount: 3, ApproxAnd: true},
		"shard1/3": {Seed: 42, CalibrationQueries: 150, ShardIndex: 1, ShardCount: 3, Selector: true},
		"shard2/3": {Seed: 42, CalibrationQueries: 150, ShardIndex: 2, ShardCount: 3},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			knots := []float64{100, 250, 500, 1000, 2500, 5000, 10000}
			var feat func(search.Query) core.Features
			if cfg.Selector {
				feat = func(q search.Query) core.Features { return s.queryFeat(q.Terms) }
			}
			m, sel := rerunCalibration(t, s, snapshotName, knots, feat, func(q search.Query, maxDocs int) ([]int, int) {
				return s.engine.Search(q, s.cfg.TopN, maxDocs)
			})
			if !reflect.DeepEqual(s.models[snapshotName], m) {
				t.Fatalf("match-loop model differs from the rerun reference:\n got %+v\nwant %+v", s.models[snapshotName], m)
			}
			if cfg.Selector && sel == nil {
				t.Fatal("reference built no selector for a Selector config")
			}
			var installed *core.LoopSelector
			if got := s.loop.Selector(); got != nil {
				installed = got.(*core.LoopSelector)
			}
			sameSelector(t, installed, sel, knots)

			if !cfg.ApproxAnd {
				if s.models[andLoopName] != nil {
					t.Fatal("conjunctive model built without ApproxAnd")
				}
				return
			}
			mAnd, _ := rerunCalibration(t, s, andLoopName, []float64{5, 10, 25, 50, 100, 250}, nil, func(q search.Query, maxDocs int) ([]int, int) {
				return s.engine.SearchAnd(q, s.cfg.TopN, maxDocs)
			})
			if !reflect.DeepEqual(s.models[andLoopName], mAnd) {
				t.Fatalf("conjunctive model differs from the rerun reference:\n got %+v\nwant %+v", s.models[andLoopName], mAnd)
			}
		})
	}
}

// TestMonitoredLossMatchesRerun is the differential test of monitored
// requests judging their own scan: at every record point, the loss the
// adapter computes from the live scan (and, for a scan cut short, from
// the precise rerun fallback) equals the loss of the capped and precise
// reruns it replaced, for both retrieval modes.
func TestMonitoredLossMatchesRerun(t *testing.T) {
	s, err := New(Config{Seed: 7, CalibrationQueries: 60, CorpusDocs: 4000})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.engine.GenerateQueries(workload.Split(7, 5), 40)
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs, search.Query{}, search.Query{Terms: []int{60, 61}})
	const topN = 10
	for _, and := range []bool{false, true} {
		rerun := s.engine.Search
		if and {
			rerun = s.engine.SearchAnd
		}
		for qi, q := range qs {
			matches := s.engine.MatchCount(q)
			if and {
				matches = s.engine.MatchCountAnd(q)
			}
			for _, at := range []int{0, 1, 7, 100, matches / 2, matches, matches + 5} {
				for _, cut := range []bool{false, true} {
					// cut stops the scan two documents past the record
					// point, as a deadline would.
					var scan docScanner = s.engine.NewScan(q, topN)
					if and {
						scan = s.engine.NewScanAnd(q, topN)
					}
					qos := &serveQoS{engine: s.engine, query: q, topN: topN, and: and, scan: scan}
					scan.StepN(at)
					recordedAt := scan.Processed()
					qos.Record(recordedAt)
					if cut {
						scan.StepN(2)
					} else {
						for scan.Step() {
						}
						qos.complete = true
					}
					got := qos.Loss(recordedAt)

					capped, _ := rerun(q, topN, recordedAt)
					precise, _ := rerun(q, topN, 0)
					if want := metrics.QueryLoss(precise, capped); got != want {
						t.Fatalf("and=%v query %d record at %d (cut %v): loss %v, rerun loss %v", and, qi, recordedAt, cut, got, want)
					}
				}
			}
		}
	}
}
