package kvcache

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/quant"
	"repro/internal/rngx"
)

func testConfig() Config {
	return Config{Layers: 2, Heads: 2, HeadDim: 16, GroupSize: 16}
}

// fillBuilder creates a builder with n random context tokens.
func fillBuilder(seed uint64, cfg Config, n int) *Builder {
	r := rngx.New(seed)
	b := NewBuilder(cfg)
	for t := 0; t < n; t++ {
		b.BeginToken()
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				b.Append(l, h, r.GaussianVec(cfg.HeadDim, 1), r.GaussianVec(cfg.HeadDim, 1))
			}
		}
	}
	return b
}

func mixedPlan(n, cs int, reorder bool) *Plan {
	p := UniformPlan(n, cs, INT4, reorder)
	for i := range p.ChunkPrec {
		switch i % 3 {
		case 0:
			p.ChunkPrec[i] = INT2
		case 1:
			p.ChunkPrec[i] = INT4
		default:
			p.ChunkPrec[i] = FP16
		}
	}
	return p
}

// referenceAttend computes attention over the raw FP32 rows.
func referenceAttend(b *Builder, l, h int, q []float32, scale float32) []float32 {
	n := b.NumTokens()
	scores := make([]float32, n)
	for t := 0; t < n; t++ {
		scores[t] = scale * mathx.Dot(q, b.KRow(l, h, t))
	}
	mathx.Softmax(scores)
	out := make([]float32, len(q))
	for t := 0; t < n; t++ {
		mathx.Axpy(scores[t], b.VRow(l, h, t), out)
	}
	return out
}

func TestPlanValidate(t *testing.T) {
	p := UniformPlan(64, 32, INT4, true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.ChunkPrec = p.ChunkPrec[:1]
	if p.Validate() == nil {
		t.Fatal("expected validation error")
	}
}

func TestPlanTailIsFP16(t *testing.T) {
	p := UniformPlan(70, 32, INT2, false) // 2 chunks + 6 tail tokens
	precs, order := p.TokenPrecisions()
	if len(precs) != 70 || len(order) != 70 {
		t.Fatalf("expanded to %d tokens", len(precs))
	}
	for i := 64; i < 70; i++ {
		if precs[i] != FP16 {
			t.Fatalf("tail token %d is %v, want FP16", i, precs[i])
		}
	}
	counts := p.Counts()
	if counts[INT2] != 64 || counts[FP16] != 6 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestChunkOrderGroupsByPrecision(t *testing.T) {
	p := mixedPlan(6*32, 32, true)
	order := p.ChunkOrder()
	// Expected: INT2 chunks (0,3), INT4 (1,4), FP16 (2,5).
	want := []int{0, 3, 1, 4, 2, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestChunkOrderIsPermutation(t *testing.T) {
	check := func(seed uint64, reorder bool) bool {
		r := rngx.New(seed)
		n := 4 + r.Intn(20)
		p := UniformPlan(n*16, 16, INT4, reorder)
		for i := range p.ChunkPrec {
			p.ChunkPrec[i] = []Precision{INT2, INT4, INT8, FP16}[r.Intn(4)]
		}
		order := p.ChunkOrder()
		seen := make([]bool, n)
		for _, c := range order {
			if c < 0 || c >= n || seen[c] {
				return false
			}
			seen[c] = true
		}
		return len(order) == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRunsReorderedAtMostOnePerPrecision(t *testing.T) {
	p := mixedPlan(12*32, 32, true)
	runs := p.SegmentRuns()
	if len(runs) > 3 {
		t.Fatalf("reordered plan has %d runs, want <= 3: %v", len(runs), runs)
	}
	p2 := mixedPlan(12*32, 32, false)
	runs2 := p2.SegmentRuns()
	if len(runs2) != 12 {
		t.Fatalf("interleaved plan has %d runs, want 12", len(runs2))
	}
}

func TestSealRejectsMismatchedPlan(t *testing.T) {
	cfg := testConfig()
	b := fillBuilder(1, cfg, 10)
	if _, err := b.Seal(UniformPlan(20, 4, INT4, false)); err == nil {
		t.Fatal("expected error for token count mismatch")
	}
}

// TestFP16PlanMatchesReference: an all-FP16 cache must reproduce raw FP32
// attention within FP16 rounding.
func TestFP16PlanMatchesReference(t *testing.T) {
	cfg := testConfig()
	b := fillBuilder(2, cfg, 64)
	cache, err := b.Seal(UniformPlan(64, 32, FP16, false))
	if err != nil {
		t.Fatal(err)
	}
	r := rngx.New(99)
	q := r.GaussianVec(cfg.HeadDim, 1)
	out := make([]float32, cfg.HeadDim)
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			cache.Attend(l, h, q, 0.25, out)
			want := referenceAttend(b, l, h, q, 0.25)
			for i := range out {
				if math.Abs(float64(out[i]-want[i])) > 2e-3 {
					t.Fatalf("l=%d h=%d out[%d]=%v want %v", l, h, i, out[i], want[i])
				}
			}
		}
	}
}

// TestReorderInvariance is the paper's Eq. 4 = Eq. 5 claim: reordering
// chunks must not change the attention output at all (same quantized
// values, same softmax, commutative sum).
func TestReorderInvariance(t *testing.T) {
	cfg := testConfig()
	check := func(seed uint64) bool {
		n := 6 * 16
		b1 := fillBuilder(seed, cfg, n)
		b2 := fillBuilder(seed, cfg, n)
		p1 := mixedPlan(n, 16, false)
		p2 := mixedPlan(n, 16, true)
		c1, err1 := b1.Seal(p1)
		c2, err2 := b2.Seal(p2)
		if err1 != nil || err2 != nil {
			return false
		}
		r := rngx.New(seed ^ 0xabc)
		q := r.GaussianVec(cfg.HeadDim, 1)
		o1 := make([]float32, cfg.HeadDim)
		o2 := make([]float32, cfg.HeadDim)
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				c1.Attend(l, h, q, 0.3, o1)
				c2.Attend(l, h, q, 0.3, o2)
				for i := range o1 {
					if math.Abs(float64(o1[i]-o2[i])) > 1e-5 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizedCloseToReference: INT4 attention should track the FP32
// reference closely; INT2 should be worse but bounded.
func TestQuantizedCloseToReference(t *testing.T) {
	cfg := testConfig()
	n := 4 * 32
	errAt := func(prec Precision) float64 {
		b := fillBuilder(5, cfg, n)
		cache, err := b.Seal(UniformPlan(n, 32, prec, true))
		if err != nil {
			t.Fatal(err)
		}
		q := rngx.New(7).GaussianVec(cfg.HeadDim, 1)
		out := make([]float32, cfg.HeadDim)
		cache.Attend(0, 0, q, 0.25, out)
		want := referenceAttend(b, 0, 0, q, 0.25)
		return mathx.MeanAbsDiff(out, want)
	}
	e16, e4, e2 := errAt(FP16), errAt(INT4), errAt(INT2)
	if !(e16 < e4 && e4 < e2) {
		t.Fatalf("error ordering violated: fp16=%v int4=%v int2=%v", e16, e4, e2)
	}
	if e4 > 0.05 {
		t.Fatalf("INT4 attention error too large: %v", e4)
	}
}

func TestTailAppendAndAttend(t *testing.T) {
	cfg := testConfig()
	n := 32
	b := fillBuilder(8, cfg, n)
	cache, err := b.Seal(UniformPlan(n, 32, FP16, false))
	if err != nil {
		t.Fatal(err)
	}
	r := rngx.New(31)
	// Append one decode token with a K identical to the query: it should
	// dominate attention and out should be ~ its V.
	q := r.GaussianVec(cfg.HeadDim, 2)
	v := r.GaussianVec(cfg.HeadDim, 1)
	cache.BeginToken()
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			cache.AppendTail(l, h, q, v)
		}
	}
	if cache.Len() != n+1 || cache.TailTokens() != 1 {
		t.Fatalf("Len=%d TailTokens=%d", cache.Len(), cache.TailTokens())
	}
	out := make([]float32, cfg.HeadDim)
	cache.Attend(0, 0, q, 4, out) // high scale -> near-argmax attention
	if cos := mathx.Cosine(out, v); cos < 0.98 {
		t.Fatalf("tail token not dominating attention, cos=%v", cos)
	}
}

func TestTokenLevelOverrides(t *testing.T) {
	cfg := testConfig()
	n := 64
	b := fillBuilder(9, cfg, n)
	p := UniformPlan(n, 32, INT4, false)
	p.TokenPrec = make([]Precision, n)
	for i := range p.TokenPrec {
		p.TokenPrec[i] = INT4
	}
	p.TokenPrec[5] = FP16 // scattered outlier tokens, KVQuant-style
	p.TokenPrec[40] = FP16
	cache, err := b.Seal(p)
	if err != nil {
		t.Fatal(err)
	}
	runs := p.SegmentRuns()
	if len(runs) != 5 {
		t.Fatalf("expected 5 runs for two scattered outliers, got %v", runs)
	}
	st := cache.Stats()
	if st.TokensByPrec[FP16] != 2 || st.TokensByPrec[INT4] != 62 {
		t.Fatalf("token counts wrong: %v", st.TokensByPrec)
	}
}

func TestStatsBytesOrdering(t *testing.T) {
	cfg := testConfig()
	n := 128
	bytesAt := func(prec Precision) int {
		b := fillBuilder(10, cfg, n)
		cache, err := b.Seal(UniformPlan(n, 32, prec, true))
		if err != nil {
			t.Fatal(err)
		}
		return cache.Stats().ContextBytes
	}
	b16, b8, b4, b2 := bytesAt(FP16), bytesAt(INT8), bytesAt(INT4), bytesAt(INT2)
	if !(b2 < b4 && b4 < b8 && b8 < b16) {
		t.Fatalf("byte ordering violated: %d %d %d %d", b2, b4, b8, b16)
	}
	// FP16 context bytes are exact: layers*heads*tokens*dim*2bytes*2(K+V).
	want := cfg.Layers * cfg.Heads * n * cfg.HeadDim * 2 * 2
	if b16 != want {
		t.Fatalf("FP16 bytes = %d, want %d", b16, want)
	}
}

func TestPrecisionBitsAndString(t *testing.T) {
	if INT2.Bits() != 2 || INT4.Bits() != 4 || INT8.Bits() != 8 || FP16.Bits() != 16 {
		t.Fatal("Bits wrong")
	}
	if FP16.String() != "FP16" || INT2.String() != "INT2" {
		t.Fatal("String wrong")
	}
}

func TestKIVIAxesConfig(t *testing.T) {
	cfg := testConfig()
	cfg.KAxis = quant.PerChannel
	cfg.VAxis = quant.PerToken
	b := fillBuilder(12, cfg, 64)
	cache, err := b.Seal(UniformPlan(64, 32, INT4, true))
	if err != nil {
		t.Fatal(err)
	}
	q := rngx.New(14).GaussianVec(cfg.HeadDim, 1)
	out := make([]float32, cfg.HeadDim)
	cache.Attend(0, 0, q, 0.25, out) // must not panic and stay finite
	for _, v := range out {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN in per-channel attention output")
		}
	}
}

// TestForkIsolation: forks share the sealed context but own their decode
// tails — decoding on one fork must not disturb its siblings or the
// pristine parent, and pre-fork tail tokens are copied, not shared.
func TestForkIsolation(t *testing.T) {
	cfg := testConfig()
	b := fillBuilder(31, cfg, 64)
	parent, err := b.Seal(UniformPlan(64, 32, INT4, true))
	if err != nil {
		t.Fatal(err)
	}
	r := rngx.New(32)
	q := r.GaussianVec(cfg.HeadDim, 1)
	ref := make([]float32, cfg.HeadDim)
	parentBytes := parent.SizeBytes()
	parent.Attend(0, 0, q, 0.25, ref)

	f1, f2 := parent.Fork(), parent.Fork()
	// Decode three tokens on f1 only.
	for i := 0; i < 3; i++ {
		f1.BeginToken()
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				f1.AppendTail(l, h, r.GaussianVec(cfg.HeadDim, 1), r.GaussianVec(cfg.HeadDim, 1))
			}
		}
	}
	if parent.Len() != 64 || f2.Len() != 64 || f1.Len() != 67 {
		t.Fatalf("tail leaked across forks: parent=%d f1=%d f2=%d", parent.Len(), f1.Len(), f2.Len())
	}
	if parent.SizeBytes() != parentBytes {
		t.Fatal("decoding on a fork changed the parent's footprint")
	}
	got := make([]float32, cfg.HeadDim)
	f2.Attend(0, 0, q, 0.25, got)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("untouched fork attention diverged at %d: %v != %v", i, got[i], ref[i])
		}
	}

	// Forking mid-decode copies the existing tail.
	f3 := f1.Fork()
	if f3.Len() != 67 || f3.TailTokens() != 3 {
		t.Fatalf("mid-decode fork lost the tail: len=%d tail=%d", f3.Len(), f3.TailTokens())
	}
	f3.BeginToken()
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			f3.AppendTail(l, h, r.GaussianVec(cfg.HeadDim, 1), r.GaussianVec(cfg.HeadDim, 1))
		}
	}
	if f1.Len() != 67 {
		t.Fatal("appending on a mid-decode fork mutated its source")
	}
}

// TestBuilderSizeBytes: the FP32 accounting must match geometry exactly.
func TestBuilderSizeBytes(t *testing.T) {
	cfg := testConfig()
	n := 48
	b := fillBuilder(33, cfg, n)
	want := int64(4 * 2 * n * cfg.Layers * cfg.Heads * cfg.HeadDim) // K+V FP32
	if got := b.SizeBytes(); got != want {
		t.Fatalf("Builder.SizeBytes = %d, want %d", got, want)
	}
}

// TestBuilderReserve: Reserve on a clone sizes every row buffer at
// exactly the reserved length, so the reserved appends allocate nothing
// and leave no unaccounted spare capacity, and the original builder's
// rows are untouched.
func TestBuilderReserve(t *testing.T) {
	cfg := testConfig()
	orig := fillBuilder(35, cfg, 20)
	want := orig.KRow(1, 1, 19)[0]
	c := orig.Clone()
	c.Reserve(5)
	bufs := make([]*float32, len(c.k))
	for idx := range c.k {
		if got, exact := cap(c.k[idx]), (20+5)*cfg.HeadDim; got != exact || cap(c.v[idx]) != exact {
			t.Fatalf("row buffer %d capacity %d/%d after Reserve, want exactly %d", idx, got, cap(c.v[idx]), exact)
		}
		bufs[idx] = &c.k[idx][:1][0]
	}
	r := rngx.New(36)
	for tok := 0; tok < 5; tok++ {
		c.BeginToken()
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				c.Append(l, h, r.GaussianVec(cfg.HeadDim, 1), r.GaussianVec(cfg.HeadDim, 1))
			}
		}
	}
	for idx := range c.k {
		if &c.k[idx][0] != bufs[idx] {
			t.Fatalf("row buffer %d reallocated during reserved appends", idx)
		}
	}
	if orig.NumTokens() != 20 || orig.KRow(1, 1, 19)[0] != want {
		t.Fatal("Reserve or appends on the clone changed the original")
	}
	if got := c.SizeBytes(); got != int64(4*2*25*cfg.Layers*cfg.Heads*cfg.HeadDim) {
		t.Fatalf("clone SizeBytes = %d", got)
	}
}

// TestBuilderAppendRowAndRows: AppendRow hands out the new, zero rows of
// the builder's own storage (capacity-clamped, so appending to one cannot
// reach the next row), and Rows views every recorded row contiguously,
// row t where KRow/VRow find it.
func TestBuilderAppendRowAndRows(t *testing.T) {
	cfg := testConfig()
	d := cfg.HeadDim
	b := fillBuilder(37, cfg, 3)
	b.Reserve(2)
	for tok := 0; tok < 2; tok++ {
		b.BeginToken()
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				k, v := b.AppendRow(l, h)
				if len(k) != d || cap(k) != d || len(v) != d || cap(v) != d {
					t.Fatalf("AppendRow rows len/cap %d/%d and %d/%d, want %d", len(k), cap(k), len(v), cap(v), d)
				}
				for i := range k {
					if k[i] != 0 || v[i] != 0 {
						t.Fatal("AppendRow returned a non-zero row")
					}
					k[i], v[i] = float32(100*l+10*h+tok), -float32(i)
				}
			}
		}
	}
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			k, v := b.Rows(l, h)
			if len(k) != 5*d || len(v) != 5*d {
				t.Fatalf("Rows(%d, %d) holds %d/%d values, want %d", l, h, len(k), len(v), 5*d)
			}
			for tok := 0; tok < 5; tok++ {
				for i := 0; i < d; i++ {
					if k[tok*d+i] != b.KRow(l, h, tok)[i] || v[tok*d+i] != b.VRow(l, h, tok)[i] {
						t.Fatalf("Rows(%d, %d) row %d differs from KRow/VRow", l, h, tok)
					}
				}
			}
			if k[3*d] != float32(100*l+10*h) || k[4*d] != float32(100*l+10*h+1) || v[4*d+2] != -2 {
				t.Fatalf("Rows(%d, %d) does not show the rows written through AppendRow", l, h)
			}
		}
	}
}
