package search

import (
	"math/rand"
	"testing"

	"green/internal/workload"
)

// samePage compares two ranked pages by content: the capped Search
// returns nil for a query with no usable term and an empty slice for one
// whose scan scored nothing, and callers only ever compare lengths and
// ids.
func samePage(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sweepQueries mixes the generated query log with the edge cases a
// sweep must survive: an empty query, out-of-range terms, a stop term,
// and random term sets whose conjunctive match set is usually empty.
func sweepQueries(t *testing.T, e *Engine, seed int64) []Query {
	t.Helper()
	qs, err := e.GenerateQueries(workload.Split(seed, 9), 60)
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs,
		Query{},
		Query{Terms: []int{-1, e.Vocab()}},
		Query{Terms: []int{0}},
		Query{Terms: []int{0, 1, e.Vocab() + 3}},
	)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 20; i++ {
		terms := make([]int, 1+rng.Intn(4))
		for j := range terms {
			terms[j] = rng.Intn(e.Vocab())
		}
		qs = append(qs, Query{Terms: terms})
	}
	return qs
}

// TestCapSweepMatchesSearch is the differential test of the one-scan
// calibration sweep: at every cap — including caps past the match
// count, repeated caps and the "no cap" zero — the sweep's page and work
// equal a capped Search (disjunctive) or SearchAnd (conjunctive) rerun,
// and its precise page and match count equal the uncapped run, for page
// sizes down to zero.
func TestCapSweepMatchesSearch(t *testing.T) {
	e, err := NewEngine(Config{Seed: 11, Docs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	capLists := [][]int{
		{1, 5, 5, 40, 100, 250, 1000, 2500, 100000},
		{0, 3, 17},
		{},
	}
	type shape struct {
		name   string
		scan   func(q Query, topN int) Stepper
		search func(q Query, topN, maxDocs int) ([]int, int)
	}
	shapes := []shape{
		{"or", func(q Query, topN int) Stepper { return e.NewScan(q, topN) }, e.Search},
		{"and", func(q Query, topN int) Stepper { return e.NewScanAnd(q, topN) }, e.SearchAnd},
	}
	var sw CapSweep // reused across every run: stale buffers must not leak
	for _, sh := range shapes {
		for _, topN := range []int{0, 1, 10} {
			for qi, q := range sweepQueries(t, e, 11) {
				for _, caps := range capLists {
					sw.Run(sh.scan(q, topN), caps)
					want, wantN := sh.search(q, topN, 0)
					if !samePage(sw.Precise, want) || sw.Matches != wantN {
						t.Fatalf("%s topN=%d query %d: precise %v/%d, Search %v/%d",
							sh.name, topN, qi, sw.Precise, sw.Matches, want, wantN)
					}
					if len(sw.Pages) != len(caps) || len(sw.Work) != len(caps) {
						t.Fatalf("%s: sweep sized %d/%d for %d caps", sh.name, len(sw.Pages), len(sw.Work), len(caps))
					}
					for i, c := range caps {
						page, n := sh.search(q, topN, c)
						if !samePage(sw.Pages[i], page) || sw.Work[i] != n {
							t.Fatalf("%s topN=%d query %d cap %d: sweep %v/%d, Search %v/%d",
								sh.name, topN, qi, c, sw.Pages[i], sw.Work[i], page, n)
						}
					}
				}
			}
		}
	}
}

// TestCapSweepRejectsDescendingCaps covers the ordering guard: a
// descending cap would snapshot a scan already past it.
func TestCapSweepRejectsDescendingCaps(t *testing.T) {
	e, err := NewEngine(Config{Seed: 11, Docs: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("descending caps accepted")
		}
	}()
	var sw CapSweep
	sw.Run(e.NewScan(Query{Terms: []int{60}}, 10), []int{50, 10})
}

func TestCapsOfTruncates(t *testing.T) {
	got := CapsOf([]float64{0.5, 1, 2.9, 80})
	want := []int{0, 1, 2, 80}
	if !samePage(got, want) {
		t.Fatalf("CapsOf = %v, want %v", got, want)
	}
}
