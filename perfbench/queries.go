package main

import (
	"math/rand"
	"strings"

	"green/internal/workload"
)

// Query mix. The vocabulary is fixed (its own constant seed), so every
// run sees the same language; --seed picks which queries are drawn,
// except in the quality phase's fixed log.
const (
	vocabSize   = 50000
	vocabSeed   = 7
	qualitySeed = 11
	zipfS       = 1.1
	maxQWords   = 3
	letters     = "abcdefghijklmnopqrstuvwxyz"
	minWordLen  = 3
	maxWordLen  = 9
)

// newVocab returns n distinct synthetic lower-case words.
func newVocab(seed int64, n int) []string {
	rng := workload.NewRand(seed)
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	var b strings.Builder
	for len(words) < n {
		b.Reset()
		l := minWordLen + rng.Intn(maxWordLen-minWordLen+1)
		for i := 0; i < l; i++ {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		w := b.String()
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return words
}

// queryGen draws queries of 1..maxQWords distinct words, each word
// Zipf-distributed over the vocabulary's ranks. The head repeats often
// enough for the server's query cache to absorb it; the many-word tail
// misses the cache.
type queryGen struct {
	words []string
	zipf  *workload.Zipf
	rng   *rand.Rand
}

func newQueryGen(words []string, seed int64) (*queryGen, error) {
	z, err := workload.NewZipf(workload.Split(seed, 1), zipfS, uint64(len(words)))
	if err != nil {
		return nil, err
	}
	return &queryGen{words: words, zipf: z, rng: workload.NewRand(workload.Split(seed, 2))}, nil
}

// next returns the raw (escaped) q parameter value of the next query.
func (g *queryGen) next() string {
	k := 1 + g.rng.Intn(maxQWords)
	var picked [maxQWords]uint64
	n := 0
	for n < k {
		r := g.zipf.Next()
		dup := false
		for _, p := range picked[:n] {
			dup = dup || p == r
		}
		if !dup {
			picked[n] = r
			n++
		}
	}
	parts := make([]string, n)
	for i, r := range picked[:n] {
		parts[i] = g.words[r]
	}
	return strings.Join(parts, "+")
}

// take draws n queries.
func (g *queryGen) take(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = g.next()
	}
	return qs
}
