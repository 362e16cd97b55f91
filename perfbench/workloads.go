package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	cocktail "repro"
	"repro/internal/rngx"
)

// Server sizing shared by every workload. Only deployment sizes are set;
// every policy, batching and tuning knob keeps its default.
const (
	serverWorkers    = 2
	serverQueueDepth = 64
	serverCacheMB    = 8
)

// Stream-shape constants.
const (
	longTokens       = 1536 // long-tier context length (a sample context, twice)
	appendChunkWords = 24   // words per warm-sessions append
	appendHeadroom   = 192  // sequence room kept for query + decode budget
)

// spec is one benchmark workload: its traffic shape.
// README.md gives the reason for each workload.
type spec struct {
	name string
	// openLoop selects Poisson arrivals at rate requests/s; otherwise
	// clients closed-loop callers each wait for their reply.
	openLoop bool
	rate     float64
	clients  int
	// Stream shape.
	longFraction   float64 // cold-long: share of long-tier contexts
	pool           int     // cache-pressure: warm contexts
	zipfS          float64 // cache-pressure: skew of reuse over the pool
	scanFraction   float64 // cache-pressure: share of one-shot contexts
	appendFraction float64 // warm-sessions: share of requests that are appends
	warmup         int     // requests replayed during setup (not timed)
}

var specs = []spec{
	{
		// A closed loop with one client: an open loop at the 2-3 req/s two
		// CPUs serve without queueing yields too few answers per window
		// for a steady median.
		name: "cold-long", clients: 1, longFraction: 0.3, warmup: 2,
	},
	{
		name: "warm-sessions", clients: serverWorkers, appendFraction: 0.02,
	},
	{
		name: "cache-pressure", openLoop: true, rate: 10, clients: serverWorkers,
		pool: 40, zipfS: 1.0, scanFraction: 0.3, warmup: 40,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// request is one generated serving request.
type request struct {
	ID      int
	Dataset string
	// Session is the warm pool index, or -1 for a one-shot context.
	Session int
	// Context is the session's full context once the request is served.
	Context []string
	// Append, on a warm-sessions append-lane request, is the chunk the
	// request grows the session by (already included in Context); such a
	// request has no Query and is not answered.
	Append []string
	Query  []string
	// Ref is the reference answer the task score is computed against.
	Ref []string
	// Due is the open-loop send time relative to the window start.
	Due time.Duration
}

// sample is a generated (context, query, reference) triple.
type sample struct {
	dataset             string
	context, query, ref []string
}

// gen draws samples and stream structure from one seed: every random
// choice comes from rng, every sample seed from seeds, so the same seed
// always yields the same stream.
type gen struct {
	p          *cocktail.Pipeline
	datasets   []string
	rng, seeds *rngx.RNG
}

func newGen(p *cocktail.Pipeline, seed uint64, lane uint64) *gen {
	g := &gen{p: p, rng: rngx.New(seed).Split(lane), seeds: rngx.New(seed).Split(lane + 1000)}
	for _, d := range cocktail.Datasets() {
		g.datasets = append(g.datasets, d.Name)
	}
	return g
}

func (g *gen) sample(dataset string) (sample, error) {
	s, err := g.p.NewSample(dataset, g.seeds.Uint64())
	if err != nil {
		return sample{}, err
	}
	return sample{dataset: dataset, context: s.Context, query: s.Query, ref: s.Answer}, nil
}

func (g *gen) anyDataset() string { return g.datasets[g.rng.Intn(len(g.datasets))] }

// lengthen extends s's context to longTokens by repeating it: the request
// prefills twice the tokens and the query still has one well-defined
// answer. (Extending with another sample's words instead, as
// internal/workload's LongFraction does, makes about half the answers
// run to the 64-token decode budget; see README.md.)
func lengthen(s sample) sample {
	ctx := make([]string, 0, longTokens)
	for len(ctx) < longTokens {
		ctx = append(ctx, s.context[:min(len(s.context), longTokens-len(ctx))]...)
	}
	s.context = ctx
	return s
}

// zipf draws pool indices with P(i) ∝ 1/(i+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z zipf) draw(r *rngx.RNG) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// dueTimes spreads n Poisson arrivals over window: given their count, the
// arrival times of a Poisson process are uniform order statistics, so the
// offered load is exactly n/window on every seed.
func dueTimes(r *rngx.RNG, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stream is one workload's generated input: the timed requests, the
// warm-up requests replayed during setup, and the contexts of the
// sessions opened during setup (warm-sessions only: a stream with
// sessions is served, and traced, on the session path).
type stream struct {
	reqs, warmup []request
	sessions     [][]string
	// more, set on a closed-loop stream, appends the next block of the
	// same seeded request sequence to reqs. A closed loop calls it when a
	// client has been handed every request generated so far, so it never
	// runs out however fast the server is; which requests the sequence
	// holds does not depend on when they are generated.
	more func() error
}

// headAnswers is how many answers a closed-loop stream holds before the
// window starts: the fixed head that task_score, kv_bytes_per_token, the
// traced run and the cache replay are computed over.
const headAnswers = 160

// answers counts the requests of reqs that ask a query (appends do not).
func answers(reqs []request) int {
	n := 0
	for _, r := range reqs {
		if r.Query != nil {
			n++
		}
	}
	return n
}

// generate builds the seeded input of workload w. An open-loop stream
// holds rate × window requests; a closed-loop one starts with at least
// headAnswers answers and is extended during the window.
func generate(p *cocktail.Pipeline, w spec, seed uint64, window time.Duration) (*stream, error) {
	var st *stream
	var err error
	switch w.name {
	case "cold-long":
		st, err = genColdLong(p, w, seed)
	case "warm-sessions":
		st, err = genWarmSessions(p, w, seed)
	case "cache-pressure":
		st, err = genCachePressure(p, w, seed, window)
	default:
		return nil, fmt.Errorf("no generator for workload %q", w.name)
	}
	for err == nil && st.more != nil && answers(st.reqs) < headAnswers {
		err = st.more()
	}
	return st, err
}

// coldBlock is the number of cold-long requests generated at a time: ten
// per dataset, so each block holds the exact mix.
const coldBlock = 10

func genColdLong(p *cocktail.Pipeline, w spec, seed uint64) (*stream, error) {
	g := newGen(p, seed, 1)
	st := &stream{}
	// Warm-up requests are short.
	for i := 0; i < w.warmup; i++ {
		s, err := g.sample(g.datasets[0])
		if err != nil {
			return nil, err
		}
		st.warmup = append(st.warmup, request{ID: -1 - i, Dataset: s.dataset, Session: -1, Context: s.context, Query: s.query, Ref: s.ref})
	}
	// Every block is stratified, so every seed offers the same mix:
	// datasets in equal shares and, within each dataset, exactly
	// longFraction long-tier contexts.
	st.more = func() error {
		datasets := g.balanced(coldBlock * len(g.datasets))
		long := make([]bool, len(datasets))
		for _, ds := range g.datasets {
			var idx []int
			for k, d := range datasets {
				if d == ds {
					idx = append(idx, k)
				}
			}
			for j, isLong := range g.mark(len(idx), w.longFraction) {
				long[idx[j]] = isLong
			}
		}
		for k, ds := range datasets {
			s, err := g.sample(ds)
			if err != nil {
				return err
			}
			if long[k] {
				s = lengthen(s)
			}
			st.reqs = append(st.reqs, request{ID: len(st.reqs), Dataset: s.dataset, Session: -1, Context: s.context, Query: s.query, Ref: s.ref})
		}
		return nil
	}
	return st, nil
}

// balanced returns n dataset names, each dataset an equal share (up to
// rounding), in seeded order.
func (g *gen) balanced(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.datasets[i%len(g.datasets)]
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mark returns n flags of which round(frac·n), at seeded positions, are set.
func (g *gen) mark(n int, frac float64) []bool {
	out := make([]bool, n)
	for i := 0; i < int(math.Round(frac*float64(n))); i++ {
		out[i] = true
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func genCachePressure(p *cocktail.Pipeline, w spec, seed uint64, window time.Duration) (*stream, error) {
	g := newGen(p, seed, 2)
	pool := make([]sample, w.pool)
	for i := range pool {
		s, err := g.sample(g.datasets[i%len(g.datasets)])
		if err != nil {
			return nil, err
		}
		pool[i] = s
	}
	z := newZipf(w.pool, w.zipfS)
	n := max(1, int(math.Round(w.rate*window.Seconds())))
	// Exactly scanFraction of the warm-up and of the timed requests are
	// one-shot scans, at seeded positions.
	scans := append(g.mark(w.warmup, w.scanFraction), g.mark(n, w.scanFraction)...)
	all := make([]request, w.warmup+n)
	for i := range all {
		s, sess := sample{}, -1
		if scans[i] {
			var err error
			if s, err = g.sample(g.anyDataset()); err != nil {
				return nil, err
			}
		} else {
			sess = z.draw(g.rng)
			s = pool[sess]
		}
		all[i] = request{Dataset: s.dataset, Session: sess, Context: s.context, Query: s.query, Ref: s.ref}
	}
	// The first w.warmup requests are replayed during setup; the rest are
	// timed, due at Poisson arrival times.
	st := &stream{warmup: all[:w.warmup], reqs: all[w.warmup:]}
	for i, d := range dueTimes(g.rng, n, window) {
		st.reqs[i].ID, st.reqs[i].Due = i, d
	}
	for i := range st.warmup {
		st.warmup[i].ID = -1 - i
	}
	return st, nil
}

// genWarmSessions opens one read session per dataset, each a single
// sample's context, plus one append-lane session per client. Answers pick
// a read session uniformly and one of its query variants; the rest of the
// requests (appendFraction) grow the client's lane session by a chunk.
func genWarmSessions(p *cocktail.Pipeline, w spec, seed uint64) (*stream, error) {
	g := newGen(p, seed, 3)
	maxSeq := p.Config().MaxSeq
	st := &stream{}
	reads := make([]sample, len(g.datasets))
	for i, ds := range g.datasets {
		s, err := g.sample(ds)
		if err != nil {
			return nil, err
		}
		reads[i] = s
		st.sessions = append(st.sessions, s.context)
	}
	// Lane session of client c has index len(reads)+c; with an even number
	// of read sessions, index % clients is c, which is how the closed loop
	// assigns sessions to clients.
	lanes := make([][]string, w.clients)
	for c := range lanes {
		s, err := g.sample(g.datasets[c])
		if err != nil {
			return nil, err
		}
		lanes[c] = s.context
		st.sessions = append(st.sessions, s.context)
	}
	variants := make([][][]string, len(reads))
	for i, s := range reads {
		variants[i] = queryVariants(s.query)
	}
	st.more = func() error {
		for k := 0; k < warmBlock; k++ {
			id := len(st.reqs)
			si := g.rng.Intn(len(reads))
			c := si % w.clients
			if g.rng.Float64() < w.appendFraction && len(lanes[c])+appendChunkWords+appendHeadroom <= maxSeq {
				chunk, err := g.sample(g.anyDataset())
				if err != nil {
					return err
				}
				grown := make([]string, 0, len(lanes[c])+appendChunkWords)
				lanes[c] = append(append(grown, lanes[c]...), chunk.context[:appendChunkWords]...)
				st.reqs = append(st.reqs, request{ID: id, Session: len(reads) + c, Context: lanes[c], Append: chunk.context[:appendChunkWords]})
				continue
			}
			s := reads[si]
			q := variants[si][g.rng.Intn(queryChurn)]
			st.reqs = append(st.reqs, request{ID: id, Dataset: s.dataset, Session: si, Context: s.context, Query: q, Ref: s.ref})
		}
		return nil
	}
	return st, nil
}

// warmBlock is the number of warm-sessions requests generated at a time.
const warmBlock = 200

// queryChurn is the number of distinct queries each read session cycles
// through.
const queryChurn = 3

// queryVariants returns queryChurn distinct phrasings of a sample query:
// as generated, without its first word, and with its final word (the
// lookup key) repeated. They ask for the same answer, but Module I is
// query-adaptive, so they can plan and seal differently.
func queryVariants(q []string) [][]string {
	last := q[len(q)-1]
	return [][]string{q, q[1:], append(append([]string(nil), q...), last)}
}
