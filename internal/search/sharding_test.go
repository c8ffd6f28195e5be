package search

import (
	"testing"

	"green/internal/workload"
)

// TestShardUnionEqualsUnsharded is the sharded-serving correctness
// anchor: each document lives in exactly one shard, every shard scores
// it exactly as the unsharded engine would, and merging the shards'
// uncapped partials through Merger reproduces the unsharded top-N page
// doc-for-doc.
func TestShardUnionEqualsUnsharded(t *testing.T) {
	const (
		seed   = int64(7)
		docs   = 2000
		shards = 3
		topN   = 10
	)
	full, err := NewEngine(Config{Seed: seed, Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Engine
	for i := 0; i < shards; i++ {
		e, err := NewEngine(Config{Seed: seed, Docs: docs, ShardIndex: i, ShardCount: shards})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, e)
	}

	queries, err := full.GenerateQueries(workload.Split(seed, 9), 50)
	if err != nil {
		t.Fatal(err)
	}
	var m Merger
	for qi, q := range queries {
		want, wantN := full.Search(q, topN, 0)

		m.Reset(topN)
		gotN := 0
		var results []Result
		for _, e := range parts {
			sc := e.NewScan(q, topN)
			for sc.Step() {
			}
			gotN += sc.Processed()
			results = sc.TopNResultsInto(results[:0])
			for _, r := range results {
				m.Push(int(r.Doc), r.Score)
			}
		}
		got := m.TopNInto(nil)

		if gotN != wantN {
			t.Fatalf("query %d: sharded scans processed %d docs, unsharded %d", qi, gotN, wantN)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: merged page has %d docs, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: merged page %v != unsharded %v", qi, got, want)
			}
		}
	}
}

// TestShardPartition verifies every document's postings land in exactly
// the one shard its id maps to.
func TestShardPartition(t *testing.T) {
	e, err := NewEngine(Config{Seed: 3, Docs: 500, ShardIndex: 1, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	for term := 0; term < e.Vocab(); term++ {
		for _, p := range e.postings[term] {
			if int(p.Doc)%2 != 1 {
				t.Fatalf("term %d: doc %d does not belong to shard 1 of 2", term, p.Doc)
			}
		}
	}
}

// TestShardConfigRejected covers the invalid-layout guard.
func TestShardConfigRejected(t *testing.T) {
	for _, idx := range []int{-1, 2, 5} {
		if _, err := NewEngine(Config{Seed: 1, Docs: 100, ShardIndex: idx, ShardCount: 2}); err == nil {
			t.Errorf("shard index %d of 2 accepted, want error", idx)
		}
	}
}

// TestTopNResultsInto checks the score-bearing ranked form agrees with
// the id-only one.
func TestTopNResultsInto(t *testing.T) {
	e, err := NewEngine(Config{Seed: 5, Docs: 300})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := e.GenerateQueries(workload.Split(5, 9), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		sc := e.NewScan(q, 8)
		for sc.Step() {
		}
		ids := sc.TopNInto(nil)
		rs := sc.TopNResultsInto(nil)
		if len(ids) != len(rs) {
			t.Fatalf("results len %d != ids len %d", len(rs), len(ids))
		}
		for i := range ids {
			if int(rs[i].Doc) != ids[i] {
				t.Fatalf("rank %d: result doc %d != id %d", i, rs[i].Doc, ids[i])
			}
			if i > 0 && less(Result{Doc: rs[i-1].Doc, Score: rs[i-1].Score}, rs[i]) {
				t.Fatalf("rank %d out of order", i)
			}
		}
	}
}

// TestShardLocalBuildMatchesFilter pins the shard-local index build to
// its reference, the unsharded engine filtered after the fact: for every
// layout and seed, each shard's posting lists are exactly the unsharded
// lists restricted to doc % ShardCount == ShardIndex, and every
// corpus-wide statistic (IDF, document lengths, quality priors, avgLen)
// is bit-identical.
func TestShardLocalBuildMatchesFilter(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		full, err := NewEngine(Config{Seed: seed, Docs: 1500})
		if err != nil {
			t.Fatal(err)
		}
		for count := 2; count <= 4; count++ {
			for idx := 0; idx < count; idx++ {
				e, err := NewEngine(Config{Seed: seed, Docs: 1500, ShardIndex: idx, ShardCount: count})
				if err != nil {
					t.Fatal(err)
				}
				if e.avgLen != full.avgLen {
					t.Fatalf("seed %d shard %d/%d: avgLen %v != unsharded %v", seed, idx, count, e.avgLen, full.avgLen)
				}
				for d := range full.docLen {
					if e.docLen[d] != full.docLen[d] || e.quality[d] != full.quality[d] {
						t.Fatalf("seed %d shard %d/%d: doc %d statistics differ", seed, idx, count, d)
					}
				}
				for term := range full.postings {
					if e.idf[term] != full.idf[term] {
						t.Fatalf("seed %d shard %d/%d: term %d idf %v != unsharded %v", seed, idx, count, term, e.idf[term], full.idf[term])
					}
					var want []Posting
					for _, p := range full.postings[term] {
						if int(p.Doc)%count == idx {
							want = append(want, p)
						}
					}
					got := e.postings[term]
					if len(got) != len(want) {
						t.Fatalf("seed %d shard %d/%d: term %d has %d postings, filter gives %d", seed, idx, count, term, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d shard %d/%d: term %d posting %d = %+v, want %+v", seed, idx, count, term, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestShardPostingsMemory is the per-worker memory guard: a shard holds
// the posting storage of its own documents only — the summed capacity of
// its posting lists stays within twice its share of the unsharded
// postings (append growth slack), not the full-corpus arrays a filter
// pass would leave behind.
func TestShardPostingsMemory(t *testing.T) {
	full, err := NewEngine(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ps := range full.postings {
		total += len(ps)
	}
	for _, count := range []int{2, 3, 4} {
		for idx := 0; idx < count; idx++ {
			e, err := NewEngine(Config{Seed: 42, ShardIndex: idx, ShardCount: count})
			if err != nil {
				t.Fatal(err)
			}
			held := 0
			for _, ps := range e.postings {
				held += cap(ps)
			}
			if limit := 2 * total / count; held > limit {
				t.Errorf("shard %d/%d holds %d posting slots, want <= %d (2x its share of %d)", idx, count, held, limit, total)
			}
		}
	}
}
