package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kvcache"
	"repro/internal/mathx"
	"repro/internal/rngx"
)

func testLex() *corpus.Lexicon {
	return corpus.NewLexicon(corpus.Defaults(1))
}

func testModel(t *testing.T) *Model {
	t.Helper()
	cfg := Registry(2048)[0]
	m, err := New(cfg, testLex())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildSample plants a needle "trigger a1 a2 a3 <eos>" into distractor text
// and returns context, query and expected answer ids. If decoys > 0, spans
// "synonym w1 w2 w3 <eos>" with wrong continuations are planted too.
func buildSample(r *rngx.RNG, lex *corpus.Lexicon, nTokens, ansLen, decoys int) (ctx, query, answer []int) {
	prose := lex.ProseTopics()
	chunks, _ := lex.PassageChunks(r, nTokens/32, 32, prose)
	for _, c := range chunks {
		ctx = append(ctx, c...)
	}
	// Pick a trigger concept with at least two forms so decoys can
	// paraphrase, and unique answer words from one topic.
	var trigConcept int
	for {
		tp := prose[r.Intn(len(prose))]
		cs := lex.TopicConcepts(tp)
		trigConcept = cs[r.Intn(len(cs))]
		if len(lex.FormsOf(trigConcept)) >= 2 {
			break
		}
	}
	trigForm := lex.FormsOf(trigConcept)[0]
	ansTopic := prose[r.Intn(len(prose))]
	used := map[int]bool{}
	pick := func() int {
		for {
			c := lex.TopicConcepts(ansTopic)[r.Intn(len(lex.TopicConcepts(ansTopic)))]
			id := lex.FormsOf(c)[0]
			if !used[id] {
				used[id] = true
				return id
			}
		}
	}
	for i := 0; i < ansLen; i++ {
		answer = append(answer, pick())
	}
	// Remove accidental occurrences of needle words from distractor text.
	blocked := map[int]bool{}
	for _, id := range lex.FormsOf(trigConcept) {
		blocked[id] = true
	}
	for _, id := range answer {
		blocked[id] = true
	}
	filler := lex.FunctionWordIDs()[0]
	for i, id := range ctx {
		if blocked[id] {
			ctx[i] = filler
		}
	}
	// Plant the needle at a random chunk-interior offset.
	span := append([]int{trigForm}, answer...)
	span = append(span, lex.EOSID())
	pos := r.Intn(len(ctx) - len(span) - 64)
	copy(ctx[pos:], span)
	// Plant decoys using the alternate surface form and wrong answers
	// (wrong words were reserved via used, so they are unique in context).
	alt := lex.AlternateForm(r, trigConcept, trigForm)
	for k := 0; k < decoys; k++ {
		wrong := make([]int, 0, ansLen+2)
		wrong = append(wrong, alt)
		for i := 0; i < ansLen; i++ {
			w := pick()
			for j, id := range ctx {
				if id == w {
					ctx[j] = filler
				}
			}
			wrong = append(wrong, w)
		}
		wrong = append(wrong, lex.EOSID())
		dpos := r.Intn(len(ctx) - len(wrong))
		if dpos < pos+len(span) && dpos+len(wrong) > pos { // avoid overlap
			continue
		}
		copy(ctx[dpos:], wrong)
	}
	// Query: a few function words then the trigger (same surface form here;
	// datasets exercise paraphrase via the encoder side).
	query = []int{filler, lex.FunctionWordIDs()[1], trigForm}
	return ctx, query, answer
}

func runSample(t *testing.T, m *Model, ctx, query []int, prec kvcache.Precision) []int {
	t.Helper()
	b, err := m.Prefill(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cc := m.CacheConfig()
	cc.GroupSize = 32
	cache, err := b.Seal(kvcache.UniformPlan(len(ctx), 32, prec, true))
	if err != nil {
		t.Fatal(err)
	}
	_ = cc
	return m.Generate(cache, query, 16)
}

func equalIDs(a, b []int) bool {
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

func TestConfigValidate(t *testing.T) {
	cfg := Registry(128)[0]
	cfg.TopicWeight = 0.9
	if cfg.Validate() == nil {
		t.Fatal("expected weight-sum error")
	}
	cfg = Registry(128)[0]
	cfg.Dim = 0
	if cfg.Validate() == nil {
		t.Fatal("expected dim error")
	}
}

func TestEmbeddingStructure(t *testing.T) {
	m := testModel(t)
	lex := m.Lexicon()
	// Find a two-form concept: synonyms should be much closer than
	// random same-topic words.
	for c := 0; c < lex.NumConcepts(); c++ {
		forms := lex.FormsOf(c)
		if len(forms) < 2 {
			continue
		}
		synCos := cos(m.Embedding(forms[0]), m.Embedding(forms[1]))
		if synCos < 0.6 || synCos > 0.98 {
			t.Fatalf("synonym cos = %v, want within (0.6, 0.98)", synCos)
		}
		return
	}
	t.Fatal("no synonym found")
}

func cos(a, b []float32) float64 {
	var num, na, nb float64
	for i := range a {
		num += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return num / math.Sqrt(na*nb)
}

func TestExactRecallFP16(t *testing.T) {
	m := testModel(t)
	r := rngx.New(100)
	ok := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		ctx, query, answer := buildSample(r, m.Lexicon(), 512, 4, 0)
		got := runSample(t, m, ctx, query, kvcache.FP16)
		if equalIDs(got, answer) {
			ok++
		}
	}
	if ok < trials*9/10 {
		t.Fatalf("FP16 recall %d/%d, want >= 90%%", ok, trials)
	}
}

func TestINT4RecallNearFP16(t *testing.T) {
	m := testModel(t)
	r := rngx.New(200)
	ok := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		ctx, query, answer := buildSample(r, m.Lexicon(), 512, 4, 3)
		got := runSample(t, m, ctx, query, kvcache.INT4)
		if equalIDs(got, answer) {
			ok++
		}
	}
	if ok < trials*6/10 {
		t.Fatalf("INT4 recall %d/%d, want >= 60%%", ok, trials)
	}
}

func TestINT2BreaksRecallWithDecoys(t *testing.T) {
	m := testModel(t)
	r := rngx.New(300)
	okINT2, okFP16 := 0, 0
	// Longer answers compound per-step INT2 failures (chained induction),
	// mirroring the summarization datasets.
	const trials = 30
	for i := 0; i < trials; i++ {
		ctx, query, answer := buildSample(r, m.Lexicon(), 512, 6, 4)
		if equalIDs(runSample(t, m, ctx, query, kvcache.INT2), answer) {
			okINT2++
		}
		if equalIDs(runSample(t, m, ctx, query, kvcache.FP16), answer) {
			okFP16++
		}
	}
	if okINT2 >= okFP16 {
		t.Fatalf("INT2 (%d/%d) should be below FP16 (%d/%d)", okINT2, trials, okFP16, trials)
	}
	if okFP16-okINT2 < trials/5 {
		t.Fatalf("INT2 degradation too small: FP16 %d vs INT2 %d", okFP16, okINT2)
	}
}

// TestMixedPlanProtectsNeedle: keeping only the needle chunk FP16 and
// everything else INT2 must restore most of the accuracy — the core
// Cocktail claim at model level.
func TestMixedPlanProtectsNeedle(t *testing.T) {
	m := testModel(t)
	r := rngx.New(400)
	okMixed, okINT2 := 0, 0
	const trials = 40
	for i := 0; i < trials; i++ {
		ctx, query, answer := buildSample(r, m.Lexicon(), 512, 4, 3)
		b, err := m.Prefill(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle plan mirroring what Module I produces: chunks containing
		// any form of the trigger concept (the needle and the synonym
		// decoys, which a concept-aware encoder necessarily scores as
		// relevant) stay FP16; everything else drops to INT2.
		plan := kvcache.UniformPlan(len(ctx), 32, kvcache.INT2, true)
		pos := findSubseq(ctx, answer)
		if pos < 0 {
			t.Fatal("answer span not found in context")
		}
		trigConcept := m.Lexicon().ConceptOf(query[len(query)-1])
		for t2, id := range ctx {
			inSpan := t2 >= pos-1 && t2 <= pos+len(answer)
			if inSpan || m.Lexicon().ConceptOf(id) == trigConcept {
				if c := t2 / 32; c < len(plan.ChunkPrec) {
					plan.ChunkPrec[c] = kvcache.FP16
				}
			}
		}
		cache, err := b.Seal(plan)
		if err != nil {
			t.Fatal(err)
		}
		if equalIDs(m.Generate(cache, query, 16), answer) {
			okMixed++
		}
		if equalIDs(runSample(t, m, ctx, query, kvcache.INT2), answer) {
			okINT2++
		}
	}
	if okMixed <= okINT2 {
		t.Fatalf("oracle mixed plan (%d) should beat uniform INT2 (%d)", okMixed, okINT2)
	}
}

// findSubseq returns the first index where needle appears in haystack.
func findSubseq(haystack, needle []int) int {
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, v := range needle {
			if haystack[i+j] != v {
				continue outer
			}
		}
		return i
	}
	return -1
}

func TestGenerateStopsAtEOS(t *testing.T) {
	m := testModel(t)
	r := rngx.New(500)
	ctx, query, answer := buildSample(r, m.Lexicon(), 512, 3, 0)
	got := runSample(t, m, ctx, query, kvcache.FP16)
	if len(got) > len(answer)+2 {
		t.Fatalf("generation did not stop near EOS: %d tokens", len(got))
	}
	for _, id := range got {
		if id == m.Lexicon().EOSID() {
			t.Fatal("EOS id leaked into output")
		}
	}
}

func TestPrefillRejectsTooLong(t *testing.T) {
	cfg := Registry(64)[0]
	m, err := New(cfg, testLex())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Prefill(make([]int, 65)); err == nil {
		t.Fatal("expected MaxSeq error")
	}
}

func TestPrefillRejectsBadToken(t *testing.T) {
	m := testModel(t)
	if _, err := m.Prefill([]int{0, 1, 1 << 30}); err == nil {
		t.Fatal("expected OOV error")
	}
}

func TestRegistryModelsDistinct(t *testing.T) {
	regs := Registry(1024)
	if len(regs) != 4 {
		t.Fatalf("Registry has %d entries", len(regs))
	}
	seen := map[string]bool{}
	for _, cfg := range regs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", cfg.Name, err)
		}
		if seen[cfg.Name] {
			t.Fatal("duplicate model name")
		}
		seen[cfg.Name] = true
	}
}

// The serial per-token loops that Prefill and Unembed replaced live on
// here as the test reference: one mathx.Dot per score, one mathx.Axpy per
// value row, freshly allocated K rows and queries. The multi-row kernels
// must reproduce them bit for bit.

// referenceKRow is the allocating form of keyInto.
func referenceKRow(m *Model, j int, key []float32) []float32 {
	out := make([]float32, len(key))
	for i, v := range key {
		out[i] = v * m.chGain[i]
	}
	if j >= 0 && isSink(j) {
		for i := 0; i < len(out); i += outlierChannelStride {
			out[i] += sinkSpike
		}
	}
	return out
}

// referenceQuery is the allocating form of queryInto.
func referenceQuery(m *Model, q []float32, gamma float32) []float32 {
	out := make([]float32, len(q))
	for i, v := range q {
		g := m.invGain[i] * gamma
		out[i] = g * v
	}
	return out
}

// referencePrefill is the serial per-token prefill loop.
func referencePrefill(m *Model, context []int) *kvcache.Builder {
	b := kvcache.NewBuilder(m.CacheConfig())
	scores := make([]float32, 0, len(context))
	bvec := make([]float32, m.cfg.Dim)
	for j, tok := range context {
		content := m.emb[tok]
		b.BeginToken()
		b.Append(0, 0, referenceKRow(m, j, m.positionVec(j)), content)
		scores = scores[:0]
		q := referenceQuery(m, m.positionVec(j-1), m.cfg.Gamma1)
		for t := 0; t <= j; t++ {
			scores = append(scores, mathx.Dot(q, b.KRow(0, 0, t)))
		}
		mathx.Softmax(scores)
		for i := range bvec {
			bvec[i] = 0
		}
		for t := 0; t <= j; t++ {
			mathx.Axpy(scores[t], b.VRow(0, 0, t), bvec)
		}
		b.Append(1, 0, referenceKRow(m, j, bvec), content)
	}
	return b
}

// referenceUnembed is the serial argmax over per-id mathx.Dot scores.
func referenceUnembed(m *Model, o []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for id, e := range m.emb {
		if s := mathx.Dot(e, o); s > best {
			best, bi = s, id
		}
	}
	return bi
}

// sameBuilder fails unless got and want hold the same token count, byte
// size and K/V row bits on every layer.
func sameBuilder(t *testing.T, label string, got, want *kvcache.Builder) {
	t.Helper()
	if got.NumTokens() != want.NumTokens() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("%s: %d tokens / %d B, want %d / %d", label,
			got.NumTokens(), got.SizeBytes(), want.NumTokens(), want.SizeBytes())
	}
	for l := 0; l < Layers; l++ {
		gk, gv := got.Rows(l, 0)
		wk, wv := want.Rows(l, 0)
		if len(gk) != len(wk) || len(gv) != len(wv) {
			t.Fatalf("%s: layer %d holds %d/%d values, want %d/%d", label, l, len(gk), len(gv), len(wk), len(wv))
		}
		for i := range wk {
			if math.Float32bits(gk[i]) != math.Float32bits(wk[i]) {
				t.Fatalf("%s: layer %d K value %d = %v, want %v", label, l, i, gk[i], wk[i])
			}
			if math.Float32bits(gv[i]) != math.Float32bits(wv[i]) {
				t.Fatalf("%s: layer %d V value %d = %v, want %v", label, l, i, gv[i], wv[i])
			}
		}
	}
}

// randomContext draws n token ids uniformly from the model's vocabulary.
func randomContext(m *Model, seed uint64, n int) []int {
	r := rngx.New(seed)
	ctx := make([]int, n)
	for i := range ctx {
		ctx[i] = r.Intn(len(m.emb))
	}
	return ctx
}

// TestPrefillMatchesReference: for every Registry model, Prefill and
// Prefill followed by PrefillExtend at several split points (inside and
// across the eight-row blocks of DotRows, and deep into the context)
// produce exactly the serial reference loop's builder.
func TestPrefillMatchesReference(t *testing.T) {
	for ci, cfg := range Registry(1024) {
		t.Run(cfg.Name, func(t *testing.T) {
			m, err := New(cfg, testLex())
			if err != nil {
				t.Fatal(err)
			}
			ctx := randomContext(m, uint64(40+ci), 723)
			want := referencePrefill(m, ctx)
			got, err := m.Prefill(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameBuilder(t, "Prefill", got, want)
			for _, split := range []int{1, 7, 8, 9, 700} {
				b, err := m.Prefill(ctx[:split])
				if err != nil {
					t.Fatal(err)
				}
				if err := m.PrefillExtend(b, ctx[split:]); err != nil {
					t.Fatal(err)
				}
				sameBuilder(t, fmt.Sprintf("split %d", split), b, want)
			}
		})
	}
}

// TestPrefillExtendFailureLeavesBuilderUntouched: a PrefillExtend that
// fails — an out-of-vocabulary id late in the suffix, or a suffix past
// MaxSeq — changes neither the builder's token count, nor its size, nor
// any row bit, and the builder still extends correctly afterwards.
func TestPrefillExtendFailureLeavesBuilderUntouched(t *testing.T) {
	cfg := Registry(64)[0]
	m, err := New(cfg, testLex())
	if err != nil {
		t.Fatal(err)
	}
	ctx := randomContext(m, 7, 40)
	b, err := m.Prefill(ctx[:20])
	if err != nil {
		t.Fatal(err)
	}
	pristine := referencePrefill(m, ctx[:20])
	bad := append(append([]int{}, ctx[20:30]...), len(m.emb))
	if err := m.PrefillExtend(b, bad); err == nil {
		t.Fatal("expected OOV error")
	}
	sameBuilder(t, "after OOV", b, pristine)
	if err := m.PrefillExtend(b, randomContext(m, 8, 45)); err == nil {
		t.Fatal("expected MaxSeq error")
	}
	sameBuilder(t, "after MaxSeq", b, pristine)
	if err := m.PrefillExtend(b, ctx[20:]); err != nil {
		t.Fatal(err)
	}
	sameBuilder(t, "extended", b, referencePrefill(m, ctx))
}

// TestPrefillAllocsConstant: prefill allocates a fixed number of buffers
// per call, whatever the context length.
func TestPrefillAllocsConstant(t *testing.T) {
	m := testModel(t)
	allocs := func(n int) float64 {
		ctx := randomContext(m, 9, n)
		return testing.AllocsPerRun(3, func() {
			if _, err := m.Prefill(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(16), allocs(512); short != long {
		t.Fatalf("Prefill allocations grow with context: %v at 16 tokens, %v at 512", short, long)
	}
}

// TestUnembedMatchesReference: Unembed returns the reference argmax for
// random outputs, and on ties — duplicated embedding rows within one
// DotRows block, across blocks, and an all-zero output scoring every id
// equal — the first id.
func TestUnembedMatchesReference(t *testing.T) {
	for ci, cfg := range Registry(64) {
		m, err := New(cfg, testLex())
		if err != nil {
			t.Fatal(err)
		}
		r := rngx.New(uint64(60 + ci))
		for trial := 0; trial < 200; trial++ {
			o := r.GaussianVec(cfg.Dim, 1)
			if trial%2 == 1 {
				// A noisy copy of one embedding, as decoding produces.
				o = append([]float32(nil), m.emb[r.Intn(len(m.emb))]...)
				for i := range o {
					o[i] += 0.05 * r.NormFloat32()
				}
			}
			if got, want := m.Unembed(o), referenceUnembed(m, o); got != want {
				t.Fatalf("%s trial %d: Unembed = %d, reference %d", cfg.Name, trial, got, want)
			}
		}
		if got := m.Unembed(make([]float32, cfg.Dim)); got != 0 || referenceUnembed(m, make([]float32, cfg.Dim)) != 0 {
			t.Fatalf("%s: zero output unembeds to %d, want 0", cfg.Name, got)
		}
	}

	m := testModel(t)
	for _, tie := range [][2]int{{5, 9}, {3, unembedBlock + 17}, {unembedBlock - 1, unembedBlock}} {
		first, dup := tie[0], tie[1]
		saved := append([]float32(nil), m.emb[dup]...)
		copy(m.emb[dup], m.emb[first])
		o := m.emb[first]
		got, want := m.Unembed(o), referenceUnembed(m, o)
		copy(m.emb[dup], saved)
		if got != first || want != first {
			t.Fatalf("tie %d/%d: Unembed = %d, reference %d, want %d", first, dup, got, want, first)
		}
	}
}

func TestUnembedPanicsOnWidthMismatch(t *testing.T) {
	m := testModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Unembed(make([]float32, m.cfg.Dim+1))
}
