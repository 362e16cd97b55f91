package main

// The traced run: the benchmark rebuilds the answer path from the
// layers' public functions (model.Prefill, core.Cocktail.Plan, which runs
// Module I's search.Run, kvcache.Builder.SealWith, model.Decoder.Step)
// and records a span around every call it makes, so each layer's self
// time can be read off without instrumenting the program. The rebuild's
// answers must be byte-identical to Pipeline.Answer, and the spans' self
// times must add up to the untraced in-process answer time of the same
// requests.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	cocktail "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kvcache"
	"repro/internal/model"
)

// maxNewTokens mirrors the pipeline's decode budget per answer.
const maxNewTokens = 64

// span is one timed call into a layer. Parent is the index of the span
// that caused it, -1 for a request root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out once at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfTimes returns each span's duration minus the durations of its
// children (which never overlap: the rebuild is sequential).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations lists the durations of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rebuild is the pipeline reassembled from its layers, with the same
// configuration as cocktail.New(cocktail.Config{}).
type rebuild struct {
	lex *corpus.Lexicon
	m   *model.Model
	ct  *core.Cocktail
}

func newRebuild(p *cocktail.Pipeline) (*rebuild, error) {
	cfg := p.Config()
	lex := corpus.NewLexicon(corpus.Defaults(cfg.LexiconSeed))
	var m *model.Model
	for _, mc := range model.Registry(cfg.MaxSeq) {
		if mc.Name == cfg.Model {
			var err error
			if m, err = model.New(mc, lex); err != nil {
				return nil, err
			}
		}
	}
	if m == nil {
		return nil, fmt.Errorf("model %q not in the registry", cfg.Model)
	}
	ct := core.NewCocktail(lex)
	enc, err := core.EncoderByName(lex, cfg.Encoder)
	if err != nil {
		return nil, err
	}
	ct.Encoder = enc
	ct.Search.Alpha, ct.Search.Beta = *cfg.Alpha, *cfg.Beta
	ct.Search.ChunkSize = cfg.ChunkSize
	ct.Search.Reorder = !cfg.DisableReorder
	return &rebuild{lex: lex, m: m, ct: ct}, nil
}

func (rb *rebuild) encode(words []string) ([]int, error) {
	ids := rb.lex.Vocab.EncodeWords(words)
	for i, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("word %q not in the vocabulary", words[i])
		}
	}
	return ids, nil
}

// tracedSession is the rebuild's counterpart of a server session: the
// prefilled builder and the sealed caches of the plans seen so far (the
// server's sessions find them in the shared session cache).
type tracedSession struct {
	ctxIDs []int
	b      *kvcache.Builder
	sealed map[string]*kvcache.Cache
}

func planKey(p *kvcache.Plan) string {
	return fmt.Sprint(p.NumTokens, p.ChunkSize, p.Reorder, p.ChunkPrec, p.TokenPrec)
}

// tracedAnswer is what one traced request leaves behind for the layer
// microbenchmarks.
type tracedAnswer struct {
	answer string
	b      *kvcache.Builder
	plan   *kvcache.Plan
	opts   kvcache.SealOptions
	sealed *kvcache.Cache
	dec    *model.Decoder
	qIDs   []int
}

// prefill opens a traced session: one model.Prefill under its own root.
func (rb *rebuild) prefill(tr *tracer, req int, context []string) (*tracedSession, error) {
	root := tr.begin("session.open", -1, req)
	defer tr.end(root)
	ids, err := rb.encode(context)
	if err != nil {
		return nil, err
	}
	s := tr.begin("model.prefill", root, req)
	b, err := rb.m.Prefill(ids)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return &tracedSession{ctxIDs: ids, b: b, sealed: map[string]*kvcache.Cache{}}, nil
}

// answer runs one traced request. With sess nil it is the cold path of
// Pipeline.StartAnswer (prefill, plan, seal, decode on the sealed
// cache); otherwise the session path of Session.StartAnswer (plan,
// reused or fresh seal, decode on a fork).
func (rb *rebuild) answer(tr *tracer, r request, sess *tracedSession) (*tracedAnswer, error) {
	root := tr.begin("request", -1, r.ID)
	defer tr.end(root)
	call := func(name string, f func() error) error {
		s := tr.begin(name, root, r.ID)
		defer tr.end(s)
		return f()
	}
	var qIDs []int
	if err := call("corpus.encode", func() (err error) {
		qIDs, err = rb.encode(r.Query)
		if err == nil && sess == nil {
			sess = &tracedSession{sealed: map[string]*kvcache.Cache{}}
			sess.ctxIDs, err = rb.encode(r.Context)
		}
		return err
	}); err != nil {
		return nil, err
	}
	cold := sess.b == nil
	if cold {
		if err := call("model.prefill", func() (err error) {
			sess.b, err = rb.m.Prefill(sess.ctxIDs)
			return err
		}); err != nil {
			return nil, err
		}
	}
	ta := &tracedAnswer{b: sess.b, qIDs: qIDs}
	if err := call("search.run", func() (err error) {
		ta.plan, ta.opts, err = rb.ct.Plan(sess.b, sess.ctxIDs, qIDs)
		return err
	}); err != nil {
		return nil, err
	}
	fp := planKey(ta.plan)
	if ta.sealed = sess.sealed[fp]; ta.sealed == nil {
		if err := call("kvcache.seal", func() (err error) {
			ta.sealed, err = sess.b.SealWith(ta.plan, ta.opts)
			return err
		}); err != nil {
			return nil, err
		}
		sess.sealed[fp] = ta.sealed
	}
	cache := ta.sealed
	if !cold {
		_ = call("kvcache.fork", func() error { cache = ta.sealed.Fork(); return nil })
	}
	ta.dec = rb.m.NewDecoder(cache)
	next := -1
	for _, tok := range qIDs {
		s := tr.begin("model.qfeed_step", root, r.ID)
		next = ta.dec.Step(tok)
		tr.end(s)
	}
	var out []int
	eos := rb.lex.EOSID()
	for len(out) < maxNewTokens && next != eos && next >= 0 {
		out = append(out, next)
		s := tr.begin("model.decode_step", root, r.ID)
		next = ta.dec.Step(next)
		tr.end(s)
	}
	_ = call("cocktail.result", func() error {
		ta.answer = strings.Join(rb.lex.SurfacesOf(out), " ")
		_ = cache.Stats()
		return nil
	})
	return ta, nil
}
