package main

import (
	"encoding/json"
	"errors"
	"fmt"
)

// page is the part of a /search reply the output check reads. It covers
// both the single-server page and the coordinator's merged page (which
// carries no approximated flag).
type page struct {
	Docs         []int `json:"docs"`
	DocsScored   int   `json:"docs_scored"`
	Approximated bool  `json:"approximated"`
	Degraded     bool  `json:"degraded"`
}

// checker validates /search replies against the result-page contract:
// a JSON object holding at most topN unique doc ids in [0, docs).
// Where a precise reference page is known, a page that claims to be
// precise (neither approximated nor degraded) must equal it.
type checker struct {
	topN, docs int
	// precise maps a raw query value to its precise page; nil disables
	// the reference comparison.
	precise map[string][]int
	// approxFlag is true when pages carry a trustworthy approximated
	// flag (a single server); the coordinator's merged page does not.
	approxFlag bool
}

// parse decodes and validates one 200 body.
func (c *checker) parse(body []byte) (page, error) {
	var raw struct {
		Docs json.RawMessage `json:"docs"`
		page
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return page{}, fmt.Errorf("malformed page: %v", err)
	}
	if raw.Docs == nil {
		return page{}, errors.New("malformed page: no docs field")
	}
	p := raw.page
	if err := json.Unmarshal(raw.Docs, &p.Docs); err != nil {
		return page{}, fmt.Errorf("malformed docs: %v", err)
	}
	if len(p.Docs) > c.topN {
		return page{}, fmt.Errorf("%d docs on a %d-doc page", len(p.Docs), c.topN)
	}
	for i, d := range p.Docs {
		if d < 0 || d >= c.docs {
			return page{}, fmt.Errorf("doc id %d out of range [0, %d)", d, c.docs)
		}
		for _, e := range p.Docs[:i] {
			if e == d {
				return page{}, fmt.Errorf("duplicate doc id %d", d)
			}
		}
	}
	if p.DocsScored < 0 {
		return page{}, fmt.Errorf("negative docs_scored %d", p.DocsScored)
	}
	return p, nil
}

// check parses a page for query q and, when the page claims to be
// precise and a reference is known, compares it with the reference.
func (c *checker) check(q string, body []byte) (page, error) {
	p, err := c.parse(body)
	if err != nil {
		return p, err
	}
	if c.approxFlag && !p.Approximated && !p.Degraded {
		if ref, ok := c.precise[q]; ok && !equalDocs(ref, p.Docs) {
			return p, fmt.Errorf("unapproximated page for %q is %v, precise page is %v", q, p.Docs, ref)
		}
	}
	return p, nil
}

func equalDocs(a, b []int) bool {
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
