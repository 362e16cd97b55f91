package kvcache

import (
	"fmt"

	"repro/internal/f16"
	"repro/internal/mathx"
	"repro/internal/quant"
)

// Config describes the cache geometry and quantization kernel options.
// A Config is a plain value: copy freely, share read-only.
type Config struct {
	// Layers and Heads give the attention geometry; the cache stores one
	// K and one V row per (layer, head, token).
	Layers int
	Heads  int
	// HeadDim is the per-head row width in values (not bytes).
	HeadDim int

	// GroupSize is the quantization group size (values per scale).
	GroupSize int
	// KAxis and VAxis select the quantization grouping direction for the
	// K and V caches (KIVI: per-channel K, per-token V).
	KAxis, VAxis quant.Axis
	// UseCodebook enables the non-uniform Gaussian codebook for integer
	// segments (the KVQuant nuqX analog).
	UseCodebook bool
}

// FP16Bytes returns the footprint of n cached tokens stored unquantized:
// one K and one V row per layer/head, two bytes per FP16 value. It is the
// reference numerator for compression ratios, derived from the cache
// geometry so callers never restate layer/head/dim constants.
func (c Config) FP16Bytes(tokens int) int {
	return tokens * c.Layers * c.Heads * c.HeadDim * 2 * 2
}

func (c Config) validate() error {
	if c.Layers <= 0 || c.Heads <= 0 || c.HeadDim <= 0 {
		return fmt.Errorf("kvcache: non-positive geometry %+v", c)
	}
	return nil
}

// Builder accumulates FP32 context KV rows during prefill, before the
// quantization plan is known. A Builder is per-request state and is not
// safe for concurrent use; sharing one across goroutines requires
// external synchronization (concurrent servers allocate one per request).
type Builder struct {
	cfg    Config
	tokens int
	// k[l*heads+h] and v[...] are row-major [tokens][headDim].
	k, v [][]float32
}

// NewBuilder returns an empty prefill KV builder.
func NewBuilder(cfg Config) *Builder {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := cfg.Layers * cfg.Heads
	return &Builder{cfg: cfg, k: make([][]float32, n), v: make([][]float32, n)}
}

// Config returns the builder's cache geometry.
func (b *Builder) Config() Config { return b.cfg }

// BeginToken starts the next context token; Append calls then fill its
// per-layer/head K and V rows.
func (b *Builder) BeginToken() { b.tokens++ }

// NumTokens returns how many context tokens have been started.
func (b *Builder) NumTokens() int { return b.tokens }

// Append records the K and V rows of the current token for (layer, head).
// Rows are copied.
func (b *Builder) Append(layer, head int, k, v []float32) {
	if len(k) != b.cfg.HeadDim || len(v) != b.cfg.HeadDim {
		panic("kvcache: Append row width mismatch")
	}
	kr, vr := b.AppendRow(layer, head)
	copy(kr, k)
	copy(vr, v)
}

// AppendRow adds zero K and V rows for the current token at (layer, head)
// and returns them for the caller to fill, so a row computed in place is
// written once. After Reserve the rows are taken from the reserved
// storage without allocating.
func (b *Builder) AppendRow(layer, head int) (k, v []float32) {
	idx := layer*b.cfg.Heads + head
	b.k[idx], k = extendRow(b.k[idx], b.cfg.HeadDim)
	b.v[idx], v = extendRow(b.v[idx], b.cfg.HeadDim)
	return k, v
}

// extendRow lengthens rows by one row of width d and returns it with that
// row. Spare capacity is never written before it is appended (the builder
// never shrinks, and a Clone has none), so the new row reads zero.
func extendRow(rows []float32, d int) ([]float32, []float32) {
	n := len(rows)
	if cap(rows)-n < d {
		rows = append(rows, make([]float32, d)...)
	}
	rows = rows[:n+d]
	return rows, rows[n : n+d : n+d]
}

// Reserve makes room for n more context tokens, so that appending them
// allocates nothing. Every (layer, head) row buffer without enough spare
// capacity is reallocated at exactly its current length plus n rows:
// Append's amortized growth would leave up to a quarter of a long
// context's rows as unused capacity, resident bytes that SizeBytes (and
// so every byte budget charging it) does not see. On a Clone, whose
// buffers have no spare capacity, Reserve also performs the one copy the
// first Append would have made.
func (b *Builder) Reserve(n int) {
	need := n * b.cfg.HeadDim
	grow := func(rows []float32) []float32 {
		if cap(rows)-len(rows) >= need {
			return rows
		}
		return append(make([]float32, 0, len(rows)+need), rows...)
	}
	for idx := range b.k {
		b.k[idx] = grow(b.k[idx])
		b.v[idx] = grow(b.v[idx])
	}
}

// Clone returns an independent builder holding the same accumulated
// context KV. The clone's row storage is capacity-clamped to its current
// length (three-index slices), so the first Append on either builder
// reallocates instead of writing into the shared backing arrays: the
// common prefix is shared immutably, which makes Clone O(layers*heads)
// regardless of context length and safe even while other goroutines read
// the original through KRow/VRow. Clone is the seam incremental session
// growth builds on — extend the clone, leave the stored original pristine.
func (b *Builder) Clone() *Builder {
	c := &Builder{cfg: b.cfg, tokens: b.tokens,
		k: make([][]float32, len(b.k)), v: make([][]float32, len(b.v))}
	for idx := range b.k {
		c.k[idx] = b.k[idx][:len(b.k[idx]):len(b.k[idx])]
		c.v[idx] = b.v[idx][:len(b.v[idx]):len(b.v[idx])]
	}
	return c
}

// SizeBytes returns the resident FP32 footprint of the accumulated
// context KV in bytes (4 bytes per value, K and V across all layers and
// heads). It is the accounting unit session stores charge for retaining a
// prefilled builder across requests.
func (b *Builder) SizeBytes() int64 {
	var n int64
	for idx := range b.k {
		n += int64(len(b.k[idx]) + len(b.v[idx]))
	}
	return 4 * n
}

// KRow returns the raw FP32 K row of token t for (layer, head) — used by
// prefill attention, which runs before quantization, and by baselines that
// need statistics (e.g. KVQuant outlier selection).
func (b *Builder) KRow(layer, head, t int) []float32 {
	idx := layer*b.cfg.Heads + head
	d := b.cfg.HeadDim
	return b.k[idx][t*d : (t+1)*d]
}

// VRow returns the raw FP32 V row of token t for (layer, head).
func (b *Builder) VRow(layer, head, t int) []float32 {
	idx := layer*b.cfg.Heads + head
	d := b.cfg.HeadDim
	return b.v[idx][t*d : (t+1)*d]
}

// Rows returns every K and V row recorded so far for (layer, head) as one
// contiguous row-major view each: row t is [t*HeadDim, (t+1)*HeadDim).
// The views alias the builder's storage and are read-only (a Clone may
// share them); multi-row kernels such as prefill attention read them
// whole instead of row by row.
func (b *Builder) Rows(layer, head int) (k, v []float32) {
	idx := layer*b.cfg.Heads + head
	return b.k[idx], b.v[idx]
}

// segment is one contiguous same-precision block of the sealed cache for a
// single (layer, head) pair.
type segment struct {
	prec   Precision
	tokens int
	// Quantized storage (prec != FP16):
	qk, qv *quant.Tensor
	// FP16 storage (prec == FP16), row-major [tokens][headDim]:
	fk, fv []f16.F16
}

// Cache is the sealed mixed-precision context KV cache plus the FP16 tail
// that decode appends to. Attention over it follows Algorithm 1. Like a
// real per-request KV cache, a Cache is owned by one request and is not
// safe for concurrent use (Attend reuses scratch buffers, AppendTail
// mutates the tail). The sealed context segments themselves are immutable
// after SealWith, which is what makes Fork cheap: forks share segments
// and own everything mutable, so cross-request reuse stores one pristine
// Cache and decodes on forks.
type Cache struct {
	cfg  Config
	plan *Plan
	segs [][]segment // [layer*heads+head][]
	// Decode/query tail, always FP16: [layer*heads+head] row-major.
	tailK, tailV [][]f16.F16
	tailTokens   int

	// scores is scratch reused across Attend calls (the cache is not
	// safe for concurrent use, like a real per-request KV cache).
	scores []float32
}

// SealOptions selects the quantization kernel variant used at Seal time,
// so one prefilled Builder can be sealed repeatedly under different
// methods (Atom, KIVI, KVQuant, Cocktail) without re-running prefill.
type SealOptions struct {
	GroupSize    int
	KAxis, VAxis quant.Axis
	UseCodebook  bool
}

// Seal quantizes with the builder's configured kernel options.
func (b *Builder) Seal(plan *Plan) (*Cache, error) {
	return b.SealWith(plan, SealOptions{
		GroupSize:   b.cfg.GroupSize,
		KAxis:       b.cfg.KAxis,
		VAxis:       b.cfg.VAxis,
		UseCodebook: b.cfg.UseCodebook,
	})
}

// SealWith quantizes the builder's context KV according to plan and opts,
// returning the immutable mixed-precision cache. The builder remains valid
// and can be sealed again.
func (b *Builder) SealWith(plan *Plan, opts SealOptions) (*Cache, error) {
	if plan.NumTokens != b.tokens {
		return nil, fmt.Errorf("kvcache: plan covers %d tokens, builder has %d", plan.NumTokens, b.tokens)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	precs, order := plan.TokenPrecisions()
	c := &Cache{
		cfg:   b.cfg,
		plan:  plan,
		segs:  make([][]segment, b.cfg.Layers*b.cfg.Heads),
		tailK: make([][]f16.F16, b.cfg.Layers*b.cfg.Heads),
		tailV: make([][]f16.F16, b.cfg.Layers*b.cfg.Heads),
	}
	d := b.cfg.HeadDim
	var cb []float32
	if opts.UseCodebook {
		cb = quant.GaussianCodebook(quant.INT4)
	}
	// Split the physical order into equal-precision runs; every (layer,
	// head) builds one segment per run. The runs' rows are gathered into
	// one scratch sized to the longest run, reused for K and V of every
	// run: f16.FromSlice and quant.Quantize copy out of their input.
	var runs [][2]int
	longest := 0
	for i := 0; i < len(precs); {
		j := i
		for j < len(precs) && precs[j] == precs[i] {
			j++
		}
		runs = append(runs, [2]int{i, j})
		longest = max(longest, j-i)
		i = j
	}
	scratch := make([]float32, longest*d)
	gather := func(rows []float32, toks []int) []float32 {
		buf := scratch[:len(toks)*d]
		for r, t := range toks {
			copy(buf[r*d:(r+1)*d], rows[t*d:(t+1)*d])
		}
		return buf
	}
	for idx := range b.k {
		for _, run := range runs {
			toks := order[run[0]:run[1]]
			n := len(toks)
			seg := segment{prec: precs[run[0]], tokens: n}
			if seg.prec == FP16 {
				seg.fk = f16.FromSlice(gather(b.k[idx], toks))
				seg.fv = f16.FromSlice(gather(b.v[idx], toks))
			} else {
				bits := quant.Bits(seg.prec.Bits())
				var segCB []float32
				if cb != nil && bits == quant.INT4 {
					segCB = cb
				}
				seg.qk = quant.Quantize(gather(b.k[idx], toks), n, d, quant.Config{
					Bits: bits, Axis: opts.KAxis, GroupSize: opts.GroupSize, Codebook: segCB})
				seg.qv = quant.Quantize(gather(b.v[idx], toks), n, d, quant.Config{
					Bits: bits, Axis: opts.VAxis, GroupSize: opts.GroupSize, Codebook: segCB})
			}
			c.segs[idx] = append(c.segs[idx], seg)
		}
	}
	return c, nil
}

// Fork returns a new cache sharing this cache's immutable sealed context
// segments (and plan) but with its own decode tail and scratch buffers.
// The sealed segments are written only at SealWith time, so any number of
// forks may decode concurrently — each fork is single-owner per-request
// state exactly like a freshly sealed Cache, while the underlying
// quantized context bytes exist once. Tail tokens already appended to the
// receiver are copied, not shared, so forking mid-decode is safe too.
//
// Fork is the mechanism behind cross-request KV reuse: a session store
// keeps one pristine sealed Cache per (context, plan) and every request
// decodes on a fork.
func (c *Cache) Fork() *Cache {
	f := &Cache{
		cfg:        c.cfg,
		plan:       c.plan,
		segs:       c.segs,
		tailK:      make([][]f16.F16, len(c.tailK)),
		tailV:      make([][]f16.F16, len(c.tailV)),
		tailTokens: c.tailTokens,
	}
	for idx := range c.tailK {
		f.tailK[idx] = append([]f16.F16(nil), c.tailK[idx]...)
		f.tailV[idx] = append([]f16.F16(nil), c.tailV[idx]...)
	}
	return f
}

// SizeBytes returns the resident footprint of the sealed cache in bytes:
// quantized and FP16 context storage plus the FP16 decode tail. It is the
// accounting unit session stores charge for retaining a sealed cache, and
// it uses the same honest byte formulas as the hardware model (packed
// codes + FP16 scale/zero metadata, 2 bytes per FP16 value).
func (c *Cache) SizeBytes() int64 {
	s := c.Stats()
	return int64(s.ContextBytes + s.TailBytes)
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Plan returns the plan the cache was sealed with.
func (c *Cache) Plan() *Plan { return c.plan }

// ContextTokens returns the number of quantization-managed context tokens.
func (c *Cache) ContextTokens() int { return c.plan.NumTokens }

// TailTokens returns the number of FP16 decode/query tokens appended.
func (c *Cache) TailTokens() int { return c.tailTokens }

// Len returns the total number of cached tokens.
func (c *Cache) Len() int { return c.plan.NumTokens + c.tailTokens }

// BeginToken starts the next decode/query token; AppendTail calls fill it.
func (c *Cache) BeginToken() { c.tailTokens++ }

// AppendTail appends an FP16 K/V row for the current decode token.
func (c *Cache) AppendTail(layer, head int, k, v []float32) {
	if len(k) != c.cfg.HeadDim || len(v) != c.cfg.HeadDim {
		panic("kvcache: AppendTail row width mismatch")
	}
	idx := layer*c.cfg.Heads + head
	c.tailK[idx] = append(c.tailK[idx], f16.FromSlice(k)...)
	c.tailV[idx] = append(c.tailV[idx], f16.FromSlice(v)...)
}

// Attend computes softmax(scale · q·Kᵀ) · V over the whole cache for
// (layer, head), accumulating into out (len HeadDim, zeroed by the caller
// if desired — Attend overwrites it).
//
// This is the paper's Algorithm 1: scores are computed per segment with
// the fused quantized kernel (fqm) or the FP16 kernel (mm), concatenated,
// softmaxed once, and the attention-weighted V sum is accumulated per
// segment. The result is independent of segment order (Eq. 4 = Eq. 5).
func (c *Cache) Attend(layer, head int, q []float32, scale float32, out []float32) {
	if len(q) != c.cfg.HeadDim || len(out) != c.cfg.HeadDim {
		panic("kvcache: Attend dimension mismatch")
	}
	idx := layer*c.cfg.Heads + head
	total := c.Len()
	if cap(c.scores) < total {
		// Headroom for the decode tail, so a growing cache does not
		// reallocate its scores on every step.
		c.scores = make([]float32, total, total+total/8+16)
	}
	scores := c.scores[:total]

	// Score pass, segment by segment.
	d := c.cfg.HeadDim
	pos := 0
	for _, seg := range c.segs[idx] {
		if seg.prec == FP16 {
			fp16Scores(scores[pos:pos+seg.tokens], q, seg.fk, d)
		} else {
			seg.qk.ScoresInto(scores[pos:pos+seg.tokens], q)
		}
		pos += seg.tokens
	}
	fp16Scores(scores[pos:], q, c.tailK[idx], d)

	mathx.Scale(scale, scores)
	mathx.Softmax(scores)

	// Value pass.
	for i := range out {
		out[i] = 0
	}
	pos = 0
	for _, seg := range c.segs[idx] {
		if seg.prec == FP16 {
			fp16Accumulate(out, scores[pos:pos+seg.tokens], seg.fv, d)
		} else {
			for t := 0; t < seg.tokens; t++ {
				seg.qv.AxpyRow(out, scores[pos+t], t)
			}
		}
		pos += seg.tokens
	}
	fp16Accumulate(out, scores[pos:], c.tailV[idx], d)
}

// fp16Scores writes dst[t] = dot(q, row t) over row-major FP16 rows of
// width d: the FP16 segment kernel (mm), widening through f16's table.
func fp16Scores(dst, q []float32, rows []f16.F16, d int) {
	for t := range dst {
		dst[t] = f16.Dot(q, rows[t*d:(t+1)*d])
	}
}

// fp16Accumulate adds weights[t] · row t to out for every row-major FP16
// row of width d, in row order.
func fp16Accumulate(out, weights []float32, rows []f16.F16, d int) {
	for t, w := range weights {
		f16.Axpy(w, rows[t*d:(t+1)*d], out)
	}
}

// Stats describes the sealed cache footprint. Byte fields are storage
// bytes (packed codes + FP16 scale/zero metadata for quantized segments,
// 2 bytes per FP16 value); token counts are context tokens.
type Stats struct {
	ContextBytes int // quantized + FP16 context storage across layers/heads, in bytes
	TailBytes    int // FP16 decode/query tail, in bytes
	Segments     int // contiguous segments per (layer, head)
	TokensByPrec map[Precision]int
}

// Stats computes the cache's storage footprint and layout shape.
func (c *Cache) Stats() Stats {
	s := Stats{TokensByPrec: c.plan.Counts()}
	for _, segs := range c.segs {
		for _, seg := range segs {
			if seg.prec == FP16 {
				s.ContextBytes += 2 * (len(seg.fk) + len(seg.fv))
			} else {
				s.ContextBytes += seg.qk.Bytes() + seg.qv.Bytes()
			}
		}
	}
	if len(c.segs) > 0 {
		s.Segments = len(c.segs[0])
	}
	for idx := range c.tailK {
		s.TailBytes += 2 * (len(c.tailK[idx]) + len(c.tailV[idx]))
	}
	return s
}
