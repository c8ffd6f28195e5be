package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"green/internal/metrics"
)

func TestIndexRoundTrip(t *testing.T) {
	orig := smallEngine(t)
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Docs() != orig.Docs() || loaded.Vocab() != orig.Vocab() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			loaded.Docs(), loaded.Vocab(), orig.Docs(), orig.Vocab())
	}
	// Loaded engine must return byte-identical results.
	qs, err := orig.GenerateQueries(33, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		a, na := orig.Search(q, 10, 0)
		b, nb := loaded.Search(q, 10, 0)
		if na != nb || !metrics.TopNExactMatch(a, b) {
			t.Fatalf("query %d differs after round trip", q.ID)
		}
		// Capped search too.
		a, _ = orig.Search(q, 10, 200)
		b, _ = loaded.Search(q, 10, 200)
		if !metrics.TopNExactMatch(a, b) {
			t.Fatalf("capped query %d differs after round trip", q.ID)
		}
	}
	// Query generation (uses cfg) is also preserved.
	qs2, err := loaded.GenerateQueries(33, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if len(qs[i].Terms) != len(qs2[i].Terms) {
			t.Fatal("query generation differs after round trip")
		}
		for j := range qs[i].Terms {
			if qs[i].Terms[j] != qs2[i].Terms[j] {
				t.Fatal("query terms differ after round trip")
			}
		}
	}
}

func TestReadEngineRejectsBadMagic(t *testing.T) {
	if _, err := ReadEngine(bytes.NewReader([]byte("NOTANIDX########"))); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err = %v, want ErrBadIndex", err)
	}
}

func TestReadEngineRejectsTruncation(t *testing.T) {
	orig := smallEngine(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 20, 100, len(data) / 2, len(data) - 3} {
		if _, err := ReadEngine(bytes.NewReader(data[:cut])); !errors.Is(err, ErrBadIndex) {
			t.Errorf("truncation at %d: err = %v, want ErrBadIndex", cut, err)
		}
	}
}

func TestReadEngineRejectsTrailingGarbage(t *testing.T) {
	orig := smallEngine(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xFF)
	if _, err := ReadEngine(&buf); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err = %v, want ErrBadIndex", err)
	}
}

func TestReadEngineRejectsImplausibleSizes(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	// docs = 0.
	buf.Write(make([]byte, 4*4+8+8+8))
	if _, err := ReadEngine(&buf); !errors.Is(err, ErrBadIndex) {
		t.Errorf("zero docs accepted: %v", err)
	}
}

func TestReadEngineRejectsUnorderedPostings(t *testing.T) {
	orig, err := NewEngine(Config{Docs: 100, VocabSize: 20, AvgDocLen: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Find a term with >= 2 postings and swap its first two docs in the
	// serialized bytes. Layout scan: magic(8) + header(4*4+8+8+8 = 40)
	// + docLen(4*docs) + quality(8*docs) + idf(8*vocab), then per-term
	// blocks.
	data := buf.Bytes()
	off := 8 + 40 + 4*100 + 8*100 + 8*20
	for t2 := 0; t2 < 20; t2++ {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 4
		if n >= 2 {
			// Swap doc ids of posting 0 and 1 (each posting is 4+2=6
			// bytes... binary.Write of the struct uses padded encoding?
			// Posting{uint32, uint16} encodes as 6 bytes with
			// binary.Write on a slice.
			p0 := off
			p1 := off + 6
			for i := 0; i < 4; i++ {
				data[p0+i], data[p1+i] = data[p1+i], data[p0+i]
			}
			break
		}
		off += 6 * n
	}
	if _, err := ReadEngine(bytes.NewReader(data)); !errors.Is(err, ErrBadIndex) {
		t.Errorf("unordered postings accepted: %v", err)
	}
}

// TestEngineBytesPinned pins the default corpus and index of seed 42,
// unsharded and as shard 2 of 3, to their serialized digests: the
// generated random stream, the corpus-wide statistics and the shard's
// posting lists must not drift, because calibrated models, benchmark
// quality figures and snapshot signatures all depend on them.
func TestEngineBytesPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Seed: 42}, "72e9bebf06a039910aaf7c75ee3325b024b2b3b9fa9cf0aa5f652f257fc4a1b5"},
		{Config{Seed: 42, ShardIndex: 2, ShardCount: 3}, "800b66ff581fde60c84158ea16fc4af80919eb9c71cf2bf0d1c649bba6aae15c"},
	} {
		e, err := NewEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if _, err := e.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("shard %d/%d: engine digest %s, want %s", c.cfg.ShardIndex, c.cfg.ShardCount, got, c.want)
		}
	}
}
