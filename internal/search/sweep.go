package search

// Stepper is the incremental scan surface Scan and ScanAnd share: score
// the next matching document, report the work so far, and read the
// running top-N page.
type Stepper interface {
	Step() bool
	StepN(k int) int
	Processed() int
	TopNInto(out []int) []int
}

// CapSweep measures one query under a list of document caps in a single
// scan — the calibration phase's precise run plus one capped run per
// candidate level. A scan capped at M stops after M matching documents,
// and its page is the running top-N at that point of the uncapped scan,
// so one scan snapshotted at each cap and then run to exhaustion yields
// every capped page and the precise page. A CapSweep reuses its buffers
// across Runs.
type CapSweep struct {
	// Pages[i] and Work[i] are the page and the documents scored with
	// the scan capped at caps[i]: what Search (or SearchAnd, for a
	// ScanAnd) returns with maxDocs = caps[i].
	Pages [][]int
	Work  []int
	// Precise and Matches are the uncapped scan's page and work.
	Precise []int
	Matches int
}

// Run drives the freshly started scan s through caps and then to
// exhaustion. The positive caps must ascend; a cap <= 0 means no cap,
// as Search's maxDocs <= 0 does, and gets the precise page. Run panics
// if the positive caps descend.
func (w *CapSweep) Run(s Stepper, caps []int) {
	for len(w.Pages) < len(caps) {
		w.Pages = append(w.Pages, nil)
	}
	w.Pages = w.Pages[:len(caps)]
	if cap(w.Work) < len(caps) {
		w.Work = make([]int, len(caps))
	}
	w.Work = w.Work[:len(caps)]
	prev := 0
	for i, c := range caps {
		if c <= 0 {
			continue // filled from the precise page below
		}
		if c < prev {
			panic("search: CapSweep caps must ascend")
		}
		prev = c
		if k := c - s.Processed(); k > 0 {
			s.StepN(k)
		}
		w.Pages[i] = s.TopNInto(w.Pages[i])
		w.Work[i] = s.Processed()
	}
	for s.Step() {
	}
	w.Precise = s.TopNInto(w.Precise)
	w.Matches = s.Processed()
	for i, c := range caps {
		if c <= 0 {
			w.Pages[i] = append(w.Pages[i][:0], w.Precise...)
			w.Work[i] = w.Matches
		}
	}
}

// CapsOf converts candidate levels (the paper's M, as calibrated) into
// document caps, truncating each as the capped Search calls do.
func CapsOf(levels []float64) []int {
	caps := make([]int, len(levels))
	for i, l := range levels {
		caps[i] = int(l)
	}
	return caps
}
