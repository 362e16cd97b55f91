// Package model implements the pure-Go decoder-only transformer substrate
// the experiments run on.
//
// Why constructed weights. The paper's accuracy results hinge on one
// mechanism: the model retrieves answer content from the context *through
// attention over the KV cache*, so corrupting the KV of query-relevant
// context destroys answers while corrupting irrelevant context is nearly
// free. A randomly initialized transformer has no such mechanism and
// pretrained weights are unavailable offline, so we build the canonical
// minimal circuit that has it: a two-layer attention-only transformer with
// analytically constructed induction heads (Elhage et al., 2021):
//
//	layer 0 — previous-token head: position-keyed attention writes the
//	          previous token's content into the residual stream;
//	layer 1 — induction head: content-keyed attention matches the current
//	          token against stored previous-token content and copies the
//	          *following* token's content to the output.
//
// Greedy decoding chains the circuit: emitting token t makes the model look
// up "what followed t in the context", which replays planted spans —
// QA answers, summaries, code completions.
//
// Everything quantization touches is real: per-layer K/V rows live in
// internal/kvcache, decode attention runs the paper's Algorithm 1 over
// mixed-precision segments, and the circuit's error tolerance is set by
// the geometry (embedding dimension, attention gain, synonym structure),
// so INT4 barely perturbs retrieval while INT2 flips matches to decoy
// continuations — the graded degradation the paper measures.
//
// Embeddings are concept-structured Gaussians shared with the dense
// retrieval encoders' notion of meaning: e(word) = √a·topic + √b·concept +
// √c·surface. Synonyms are close (cos ≈ a+b) but distinct, which both makes
// paraphrased queries work and gives quantization noise realistic decoys to
// fail onto.
package model

import (
	"fmt"
	"math"

	"repro/internal/corpus"
	"repro/internal/kvcache"
	"repro/internal/mathx"
	"repro/internal/rngx"
)

// Config describes one simulated model. The four paper models map to four
// configurations differing in width, gains and seed (see Registry).
type Config struct {
	Name string
	// Dim is the head/embedding dimension of the circuit.
	Dim int
	// Gamma1 is the previous-token head attention gain.
	Gamma1 float32
	// Gamma2 is the induction head attention gain.
	Gamma2 float32
	// TopicWeight/ConceptWeight/SurfaceWeight are the squared embedding
	// mixture weights (must sum to ~1): cos(synonyms) ≈ Topic+Concept.
	TopicWeight, ConceptWeight, SurfaceWeight float64
	// MaxSeq is the maximum sequence length (position table size).
	MaxSeq int
	// Seed derives all model weights.
	Seed uint64
}

// Layers is the number of transformer layers (previous-token + induction).
const Layers = 2

// Heads is the number of attention heads per layer in the circuit.
const Heads = 1

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Dim <= 0 || c.MaxSeq <= 0 {
		return fmt.Errorf("model: non-positive Dim/MaxSeq in %+v", c)
	}
	sum := c.TopicWeight + c.ConceptWeight + c.SurfaceWeight
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("model: embedding weights sum to %v, want 1", sum)
	}
	return nil
}

// Model is a constructed two-layer induction transformer over a lexicon.
// Weights are frozen at New; every request reads them lock-free.
//
//cocktail:immutable
type Model struct {
	cfg Config
	lex *corpus.Lexicon
	// embRows holds every content embedding as one row-major
	// [vocab][Dim] array, so Unembed scores the vocabulary with one
	// multi-row kernel; emb[id] is a capacity-clamped view of row id.
	embRows []float32
	emb     [][]float32
	pos     [][]float32 // position vectors, pos[0] is the "before start" vector
	// chGain holds per-channel K magnitudes and invGain its reciprocal.
	// Real LLM K caches have a few large-magnitude channels; queries are
	// scaled inversely so FP32 attention is unchanged, but quantization
	// kernels must cope with the channel structure (this is what makes
	// per-token K grouping — Atom — lose to per-channel — KIVI).
	chGain, invGain []float32
}

// Channel/token outlier structure constants. These mirror measured LLM KV
// statistics: a small set of K channels carries ~2.5x magnitude, and ~1%
// of tokens ("attention sinks") have high-norm keys. KVQuant's top-1%
// FP16 token selection exists precisely to pull the sinks out of the
// quantization groups they would otherwise inflate.
const (
	outlierChannelStride = 24  // one boosted channel per 24 dims
	outlierChannelGain   = 2.5 // magnitude of boosted channels
	sinkStride           = 97  // one sink token per ~97 positions
	sinkPhase            = 13
	// sinkSpike is added to a sink token's outlier channels. Queries carry
	// little weight there (inverse gain), so FP32 attention barely moves,
	// but any quantization group containing a sink has its range — and so
	// its neighbours' error — inflated.
	sinkSpike = 2.0
)

// isSink reports whether context position j is an attention-sink token.
func isSink(j int) bool { return j%sinkStride == sinkPhase }

// New constructs the model deterministically from cfg.Seed.
func New(cfg Config, lex *corpus.Lexicon) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, lex: lex}
	root := rngx.New(cfg.Seed)
	d := cfg.Dim
	sigma := 1 / math.Sqrt(float64(d))

	topicVec := map[int][]float32{}
	conceptVec := map[int][]float32{}
	vec := func(cache map[int][]float32, label uint64, id int) []float32 {
		if v, ok := cache[id]; ok {
			return v
		}
		v := root.Split(label).Split(uint64(id)+1).GaussianVec(d, sigma)
		cache[id] = v
		return v
	}

	ta := float32(math.Sqrt(cfg.TopicWeight))
	ca := float32(math.Sqrt(cfg.ConceptWeight))
	sa := float32(math.Sqrt(cfg.SurfaceWeight))
	m.embRows = make([]float32, len(lex.Words)*d)
	m.emb = make([][]float32, len(lex.Words))
	for id, w := range lex.Words {
		e := m.embRows[id*d : (id+1)*d : (id+1)*d]
		// Topic ids can be FunctionTopic (-1): offset so labels stay unique.
		tv := vec(topicVec, 0x70, w.Topic+2)
		cv := vec(conceptVec, 0xc0, w.Concept)
		sv := root.Split(0x5f).Split(uint64(id)+1).GaussianVec(d, sigma)
		for i := 0; i < d; i++ {
			e[i] = ta*tv[i] + ca*cv[i] + sa*sv[i]
		}
		// Unit-normalize: greedy decoding compares dot products against the
		// retrieved content, so embedding norm variance would bias argmax
		// toward large-norm words regardless of attention.
		mathx.Normalize(e)
		m.emb[id] = e
	}

	// Position vectors: pos[i+1] is the vector of sequence position i;
	// pos[0] is the synthetic "position -1" used by the first token.
	m.pos = make([][]float32, cfg.MaxSeq+1)
	pr := root.Split(0xb05)
	for i := range m.pos {
		m.pos[i] = pr.GaussianVec(d, sigma)
	}

	m.chGain = make([]float32, d)
	m.invGain = make([]float32, d)
	for i := 0; i < d; i++ {
		m.chGain[i] = 1
		if i%outlierChannelStride == 0 {
			m.chGain[i] = outlierChannelGain
		}
		m.invGain[i] = 1 / m.chGain[i]
	}
	return m, nil
}

// keyInto writes the stored K row for position j from the logical key
// vector into dst and returns dst: channel gains always apply; sink
// positions get an extra magnitude boost.
func (m *Model) keyInto(dst []float32, j int, key []float32) []float32 {
	for i, v := range key {
		dst[i] = v * m.chGain[i]
	}
	if j >= 0 && isSink(j) {
		for i := 0; i < len(dst); i += outlierChannelStride {
			dst[i] += sinkSpike
		}
	}
	return dst
}

// queryInto folds the inverse channel gains and the attention gain into
// the query q, writing it to dst and returning dst, so FP32 scores equal
// gamma*(q·k) for normal tokens. The gain product is rounded first,
// matching the dense path's folded weight matrices bit-for-bit (see
// dense.go).
func (m *Model) queryInto(dst, q []float32, gamma float32) []float32 {
	for i, v := range q {
		g := m.invGain[i] * gamma
		dst[i] = g * v
	}
	return dst
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Lexicon returns the lexicon the model was built over.
func (m *Model) Lexicon() *corpus.Lexicon { return m.lex }

// Embedding returns the content embedding of a word id (read-only).
func (m *Model) Embedding(id int) []float32 { return m.emb[id] }

// CacheConfig returns the kvcache geometry for this model, with the
// quantization kernel options supplied by the caller's method policy.
func (m *Model) CacheConfig() kvcache.Config {
	return kvcache.Config{Layers: Layers, Heads: Heads, HeadDim: m.cfg.Dim}
}

// positionVec returns the position vector for sequence position i
// (i = -1 is valid and returns the before-start vector).
func (m *Model) positionVec(i int) []float32 {
	if i+1 < 0 || i+1 >= len(m.pos) {
		panic(fmt.Sprintf("model: position %d out of range (MaxSeq=%d)", i, m.cfg.MaxSeq))
	}
	return m.pos[i+1]
}

// Prefill runs the context through the circuit and returns a KV builder
// holding the raw FP32 context KV, ready to be sealed with a quantization
// plan. Layer-0 attention during prefill runs on the raw (FP16-equivalent)
// cache exactly as the paper's prefill does — quantization happens after.
func (m *Model) Prefill(context []int) (*kvcache.Builder, error) {
	b := kvcache.NewBuilder(m.CacheConfig())
	if err := m.prefillInto(b, 0, context); err != nil {
		return nil, err
	}
	return b, nil
}

// PrefillExtend continues prefill on a builder that already holds `start`
// context tokens, feeding the suffix through the circuit at positions
// start..start+len(suffix)-1. Because prefill is an incremental per-token
// loop — token j's rows and layer-0 attention depend only on rows [0, j]
// — extending a builder replays exactly the operation sequence a cold
// Prefill of the concatenation would run, so the resulting builder is
// bit-identical to Prefill(prefix ++ suffix). The builder is typically a
// Clone of a shared stored builder: extending a clone leaves the stored
// original (and any concurrent readers of it) untouched. On error the
// builder is unchanged.
func (m *Model) PrefillExtend(b *kvcache.Builder, suffix []int) error {
	return m.prefillInto(b, b.NumTokens(), suffix)
}

// prefillInto runs the prefill token loop for context at sequence
// positions start..start+len(context)-1, appending to b. It requires b to
// hold exactly `start` tokens already, and checks every token before it
// changes b, so a failed prefill leaves b as it was.
//
// Every K/V row is written once, in place, into storage Reserve set
// aside, and layer-0 attention reads the builder's contiguous layer-0
// rows through the multi-row kernels, which keep the per-row Dot and Axpy
// arithmetic bit for bit (DESIGN.md "Kernel contract").
func (m *Model) prefillInto(b *kvcache.Builder, start int, context []int) error {
	if b.NumTokens() != start {
		return fmt.Errorf("model: builder holds %d tokens, prefill resumes at %d", b.NumTokens(), start)
	}
	if start+len(context) > m.cfg.MaxSeq {
		return fmt.Errorf("model: context length %d exceeds MaxSeq %d", start+len(context), m.cfg.MaxSeq)
	}
	for _, tok := range context {
		if tok < 0 || tok >= len(m.emb) {
			return fmt.Errorf("model: token id %d out of vocabulary", tok)
		}
	}
	b.Reserve(len(context))
	d := m.cfg.Dim
	scores := make([]float32, start+len(context))
	q := make([]float32, d)
	bvec := make([]float32, d)
	for jj, tok := range context {
		j := start + jj
		content := m.emb[tok]
		b.BeginToken()
		// Layer 0 rows: K = position vector (with channel gains and sink
		// boosts), V = content.
		k, v := b.AppendRow(0, 0)
		m.keyInto(k, j, m.positionVec(j))
		copy(v, content)

		// Layer-0 attention for position j: query is the previous
		// position's vector, causally over positions [0, j].
		s := scores[:j+1]
		k0, v0 := b.Rows(0, 0)
		mathx.DotRows(m.queryInto(q, m.positionVec(j-1), m.cfg.Gamma1), k0, s)
		mathx.Softmax(s)
		clear(bvec)
		mathx.AxpyRows(s, v0, bvec)

		// Layer 1 rows: K = previous-token content (the layer-0 output),
		// V = own content. Induction matching happens against these.
		k, v = b.AppendRow(1, 0)
		m.keyInto(k, j, bvec)
		copy(v, content)
	}
	return nil
}

// Decoder runs query processing and autoregressive decoding over a sealed
// (mixed-precision) cache, appending FP16 KV for each new token as the
// paper prescribes for decode-phase tokens.
type Decoder struct {
	m     *Model
	cache *kvcache.Cache
	pos   int // next sequence position
	b     []float32
	o     []float32
	// q and k are per-step scratch for the scaled query and the K row
	// (Attend and AppendTail copy out of them).
	q, k []float32
}

// NewDecoder positions a decoder after the sealed context.
func (m *Model) NewDecoder(cache *kvcache.Cache) *Decoder {
	d := m.cfg.Dim
	return &Decoder{
		m:     m,
		cache: cache,
		pos:   cache.ContextTokens(),
		b:     make([]float32, d),
		o:     make([]float32, d),
		q:     make([]float32, d),
		k:     make([]float32, d),
	}
}

// Step feeds one token through the circuit: it attends over the cache
// (Algorithm 1 segment attention), appends the token's FP16 KV rows, and
// returns the greedy next-token prediction.
func (d *Decoder) Step(tok int) int {
	m := d.m
	if d.pos >= m.cfg.MaxSeq {
		panic("model: sequence exceeded MaxSeq")
	}
	content := m.emb[tok]
	dcfg := m.cfg

	// Layer 0: previous-token head.
	d.cache.Attend(0, 0, m.queryInto(d.q, m.positionVec(d.pos-1), dcfg.Gamma1), 1, d.b)

	// Layer 1: induction head keyed by current content.
	d.cache.Attend(1, 0, m.queryInto(d.q, content, dcfg.Gamma2), 1, d.o)

	// Append this token's KV (always FP16 — decode/query phase; decode
	// positions are never sinks but carry the channel gains).
	d.cache.BeginToken()
	d.cache.AppendTail(0, 0, m.keyInto(d.k, -1, m.positionVec(d.pos)), content)
	d.cache.AppendTail(1, 0, m.keyInto(d.k, -1, d.b), content)
	d.pos++

	return m.Unembed(d.o)
}

// Output returns the last induction-head output vector (for diagnostics).
func (d *Decoder) Output() []float32 { return d.o }

// unembedBlock is how many vocabulary rows Unembed scores per DotRows
// call, into a stack buffer.
const unembedBlock = 64

// Unembed returns the vocabulary id whose embedding best matches o (the
// first such id on ties). The scores are mathx.Dot(emb[id], o) bit for
// bit, computed over the flat embedding array by the multi-row kernel.
func (m *Model) Unembed(o []float32) int {
	d := m.cfg.Dim
	var buf [unembedBlock]float32
	best, bi := float32(math.Inf(-1)), 0
	for lo := 0; lo < len(m.emb); lo += unembedBlock {
		s := buf[:min(unembedBlock, len(m.emb)-lo)]
		mathx.DotRows(o, m.embRows[lo*d:(lo+len(s))*d], s)
		for i, v := range s {
			if v > best {
				best, bi = v, lo+i
			}
		}
	}
	return bi
}

// Generate processes the query tokens and then decodes greedily until EOS
// or maxNew tokens, returning the generated ids (without the EOS).
func (m *Model) Generate(cache *kvcache.Cache, query []int, maxNew int) []int {
	d := m.NewDecoder(cache)
	next := -1
	for _, tok := range query {
		next = d.Step(tok)
	}
	var out []int
	eos := m.lex.EOSID()
	for len(out) < maxNew && next != eos && next >= 0 {
		out = append(out, next)
		next = d.Step(next)
	}
	return out
}

// Registry returns the four simulated models standing in for the paper's
// Llama2-7B, Llama2-13B, Mistral-7B and Longchat-7B. Widths and gains
// differ so absolute scores vary by model, as in Table II.
func Registry(maxSeq int) []Config {
	return []Config{
		{Name: "Llama2-7B-sim", Dim: 48, Gamma1: 24, Gamma2: 16,
			TopicWeight: 0.12, ConceptWeight: 0.81, SurfaceWeight: 0.07,
			MaxSeq: maxSeq, Seed: 0x77a1},
		{Name: "Llama2-13B-sim", Dim: 56, Gamma1: 26, Gamma2: 17,
			TopicWeight: 0.12, ConceptWeight: 0.81, SurfaceWeight: 0.07,
			MaxSeq: maxSeq, Seed: 0x77b2},
		{Name: "Mistral-7B-sim", Dim: 48, Gamma1: 24, Gamma2: 16,
			TopicWeight: 0.12, ConceptWeight: 0.80, SurfaceWeight: 0.08,
			MaxSeq: maxSeq, Seed: 0x3157},
		{Name: "Longchat-7B-sim", Dim: 44, Gamma1: 23, Gamma2: 15.5,
			TopicWeight: 0.12, ConceptWeight: 0.80, SurfaceWeight: 0.08,
			MaxSeq: maxSeq, Seed: 0x10c6},
	}
}
