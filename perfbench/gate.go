package main

import (
	"fmt"
	"strings"
	"sync"

	cocktail "repro"
	"repro/internal/parallel"
)

// truth is the reference output of one (context, query): the in-process
// cold Pipeline.Answer.
type truth struct {
	answer         []string
	contextKVBytes int
}

// truthSet memoizes cold answers by (context, query), so a pair served
// many times is answered cold once.
type truthSet struct {
	p  *cocktail.Pipeline
	mu sync.Mutex
	m  map[string]truth
}

func newTruthSet(p *cocktail.Pipeline) *truthSet {
	return &truthSet{p: p, m: make(map[string]truth)}
}

func pairKey(context, query []string) string {
	return strings.Join(context, " ") + "\x00" + strings.Join(query, " ")
}

// fill computes the cold answer of every pair of reqs not yet known, on
// workers goroutines.
func (ts *truthSet) fill(reqs []request, workers int) error {
	var todo []request
	seen := make(map[string]bool)
	ts.mu.Lock()
	for _, r := range reqs {
		k := pairKey(r.Context, r.Query)
		if _, ok := ts.m[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, r)
		}
	}
	ts.mu.Unlock()
	return parallel.ForEach(workers, len(todo), func(i int) error {
		r := todo[i]
		res, err := ts.p.Answer(r.Context, r.Query)
		if err != nil {
			return fmt.Errorf("cold answer of request %d: %w", r.ID, err)
		}
		ts.mu.Lock()
		ts.m[pairKey(r.Context, r.Query)] = truth{answer: res.Answer, contextKVBytes: res.Plan.ContextKVBytes}
		ts.mu.Unlock()
		return nil
	})
}

func (ts *truthSet) get(r request) (truth, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[pairKey(r.Context, r.Query)]
	return t, ok
}

// checkOutcomes marks as failed every outcome whose answer or plan
// footprint differs from the truth of its request. byID maps outcome IDs
// to requests. It returns the number of mismatches it marked.
func checkOutcomes(outs []outcome, byID map[int]request, truthOf func(request) (truth, bool)) int {
	bad := 0
	for i := range outs {
		o := &outs[i]
		if o.Err != nil || o.Append {
			continue
		}
		r, ok := byID[o.ID]
		if !ok {
			o.Err = fmt.Errorf("outcome for unknown request %d", o.ID)
			bad++
			continue
		}
		t, ok := truthOf(r)
		switch {
		case !ok:
			o.Err = fmt.Errorf("request %d: no reference answer", r.ID)
		case strings.Join(o.Answer, " ") != strings.Join(t.answer, " "):
			o.Err = fmt.Errorf("request %d: served %q, cold answer %q", r.ID, o.Answer, t.answer)
		case o.ContextKVBytes != t.contextKVBytes:
			o.Err = fmt.Errorf("request %d: served plan of %d KV bytes, cold plan %d", r.ID, o.ContextKVBytes, t.contextKVBytes)
		default:
			continue
		}
		bad++
	}
	return bad
}
