package main

import (
	"strings"
	"testing"
)

func TestCheckerRejectsBadPages(t *testing.T) {
	c := &checker{topN: 3, docs: 100, approxFlag: true, precise: map[string][]int{"a+b": {4, 5, 6}}}
	for _, tc := range []struct {
		name, q, body, want string
	}{
		{"not json", "x", `{"docs":[1,2`, "malformed page"},
		{"no docs", "x", `{"query":"x"}`, "no docs field"},
		{"docs not ints", "x", `{"docs":["a"]}`, "malformed docs"},
		{"too many", "x", `{"docs":[1,2,3,4]}`, "4 docs on a 3-doc page"},
		{"duplicate", "x", `{"docs":[1,2,1]}`, "duplicate doc id 1"},
		{"out of range", "x", `{"docs":[1,100]}`, "out of range"},
		{"negative", "x", `{"docs":[-1]}`, "out of range"},
		{"precise differs", "a+b", `{"docs":[4,6,5],"approximated":false}`, "precise page is [4 5 6]"},
	} {
		_, err := c.check(tc.q, []byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckerAcceptsGoodPages(t *testing.T) {
	c := &checker{topN: 3, docs: 100, approxFlag: true, precise: map[string][]int{"a+b": {4, 5, 6}}}
	for _, tc := range []struct{ q, body string }{
		{"a+b", `{"query":"a b","docs":[4,5,6],"docs_scored":9,"approximated":false,"monitored":false}` + "\n"},
		// Approximated and degraded pages may differ from the precise page.
		{"a+b", `{"docs":[4,6,7],"approximated":true}`},
		{"a+b", `{"docs":[4],"approximated":false,"degraded":true}`},
		// No reference known, and no matches at all.
		{"c", `{"docs":[99,0]}`},
		{"d", `{"docs":null,"docs_scored":0}`},
	} {
		if _, err := c.check(tc.q, []byte(tc.body)); err != nil {
			t.Errorf("%s: %v", tc.body, err)
		}
	}
	// The coordinator's merged page carries no approximated flag, so it
	// is not compared with the precise page.
	co := &checker{topN: 3, docs: 100, precise: c.precise}
	if _, err := co.check("a+b", []byte(`{"docs":[4,6,5],"degraded":false}`)); err != nil {
		t.Errorf("coordinator page: %v", err)
	}
}
