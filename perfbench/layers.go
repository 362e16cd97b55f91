package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	cocktail "repro"
	"repro/internal/f16"
	"repro/internal/kvcache"
	"repro/internal/mathx"
	"repro/internal/quant"
)

const (
	// Requests of the stream the traced run rebuilds, per path.
	tracedColdRequests    = 32
	tracedSessionRequests = 128
	// Requests the layer microbenchmarks and the cocktail.* timings use.
	microRequests = 8
	microReps     = 20
	// Requests the in-process session-cache replay serves.
	cacheReplayRequests = 96
	// maxDecompositionError bounds |traced stage sum / untraced - 1|.
	maxDecompositionError = 0.10
)

// timeReps runs f reps times and returns the median duration of one run.
func timeReps(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// layerMetrics computes the per-layer metrics: the server's and the load
// generator's counters from the untraced HTTP run in win, then the traced
// in-process run over the head of the same request stream.
func layerMetrics(ref *cocktail.Pipeline, w spec, st *stream, win *window, truths *truthSet, lagP95 float64,
	seed uint64, out io.Writer, problems []string) (map[string]metric, []string, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Load generator health.
	var ok int
	var serverTTFT []float64
	for _, o := range win.outs {
		if o.Err == nil {
			ok++
			serverTTFT = append(serverTTFT, ms(o.ServerTTFT))
		}
	}
	put("workload.sent", float64(len(win.outs)), "count")
	put("workload.succeeded", float64(ok), "count")
	put("workload.failed", float64(len(win.outs)-ok), "count")
	put("workload.gen_lag_p95_ms", lagP95, "ms")

	// Server counters.
	snap := win.snap
	var shed int64
	for _, e := range snap.Endpoints {
		shed += e.Rejected
	}
	put("httpapi.batch_mean", snap.Batching.MeanBatch, "requests")
	put("httpapi.batch_max", float64(snap.Batching.MaxBatch), "requests")
	put("httpapi.shared_prefills", float64(snap.Batching.SharedPrefills), "count")
	put("httpapi.step_joins", float64(snap.Batching.StepJoins), "count")
	put("httpapi.shed", float64(shed), "count")
	put("httpapi.server_ttft_mean_ms", snap.Streaming.MeanTTFTMS, "ms")
	put("httpapi.client_minus_server_ttft_ms", mean(serverTTFT)-snap.Streaming.MeanTTFTMS, "ms")
	fmt.Fprintf(out, "note: at most %d requests are in flight, so batches are at most %d wide\n", w.clients, w.clients)

	sc := snap.SessionCache
	put("sessioncache.evictions", float64(sc.Evictions), "count")
	put("sessioncache.admission_rejects", float64(sc.Admission.ScanRejections), "count")
	put("sessioncache.resident_over_budget", float64(sc.Bytes)/float64(max(sc.MaxBytes, 1)), "share")

	// The traced run, on the path the workload is served on.
	rb, err := newRebuild(ref)
	if err != nil {
		return nil, nil, err
	}
	sessionPath := st.sessions != nil
	n := tracedColdRequests
	if sessionPath {
		n = tracedSessionRequests
	}
	var reqs []request
	for _, r := range st.reqs {
		if r.Query != nil && len(reqs) < n {
			reqs = append(reqs, r)
		}
	}
	if err := truths.fill(reqs, runtime.NumCPU()); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var tsess []*tracedSession
	var usess []*cocktail.Session
	// The untraced sessions share a store that never evicts, like the
	// traced ones' per-session seal maps: both seal each plan once, so
	// the two runs do the same work. (Evictions under the server's budget
	// are what the HTTP run and the cache replay measure.)
	store := cocktail.NewSessionCache(ref, cocktail.SessionCacheOptions{MaxBytes: 1 << 30})
	for i, base := range st.sessions {
		ts, err := rb.prefill(tr, -1-i, base)
		if err != nil {
			return nil, nil, err
		}
		us, err := store.Prefill(base)
		if err != nil {
			return nil, nil, err
		}
		tsess, usess = append(tsess, ts), append(usess, us)
	}
	var answers []*tracedAnswer
	var untraced []float64
	var untracedTotal time.Duration
	for i, r := range reqs {
		var ta *tracedAnswer
		var terr, uerr error
		traced := func() {
			var sess *tracedSession
			if sessionPath {
				sess = tsess[r.Session]
			}
			ta, terr = rb.answer(tr, r, sess)
		}
		plain := func() {
			t0 := time.Now()
			if sessionPath {
				_, uerr = usess[r.Session].Answer(r.Query)
			} else {
				_, uerr = ref.Answer(r.Context, r.Query)
			}
			d := time.Since(t0)
			untracedTotal += d
			untraced = append(untraced, ms(d))
		}
		// Alternate which side runs first, so drift hits both alike.
		if i%2 == 0 {
			plain()
			traced()
		} else {
			traced()
			plain()
		}
		if terr != nil || uerr != nil {
			return nil, nil, fmt.Errorf("traced run, request %d: traced %v, untraced %v", r.ID, terr, uerr)
		}
		if t, _ := truths.get(r); ta.answer != strings.Join(t.answer, " ") {
			problems = append(problems, fmt.Sprintf("traced rebuild of request %d answered %q, Pipeline.Answer %q", r.ID, ta.answer, t.answer))
		}
		answers = append(answers, ta)
	}

	// Decomposition: the stage self times of every request against the
	// untraced answer time of the same requests.
	self := tr.selfTimes()
	var stages, roots time.Duration
	for i, s := range tr.spans {
		switch {
		case s.Name == "request":
			roots += time.Duration(s.End - s.Start)
		case s.Parent >= 0 && tr.spans[s.Parent].Name == "request":
			stages += self[i]
		}
	}
	ratio := float64(stages) / float64(untracedTotal)
	put("trace.requests", float64(len(reqs)), "count")
	put("trace.overhead_ms", ms(roots-untracedTotal)/float64(len(reqs)), "ms/request")
	if ratio < 1-maxDecompositionError || ratio > 1+maxDecompositionError {
		problems = append(problems, fmt.Sprintf("traced stage self times sum to %.3f of the untraced answer time (limit ±%.0f%%)", ratio, 100*maxDecompositionError))
	}
	fmt.Fprintf(out, "decomposition: %d requests, stage self times %.1f ms = %.3f of the untraced answers' %.1f ms; traced roots %.1f ms\n",
		len(reqs), ms(stages), ratio, ms(untracedTotal), ms(roots))
	for _, name := range []string{"corpus.encode", "model.prefill", "search.run", "kvcache.seal",
		"kvcache.fork", "model.qfeed_step", "model.decode_step", "cocktail.result"} {
		var sum time.Duration
		for i, s := range tr.spans {
			if s.Name == name && s.Parent >= 0 && tr.spans[s.Parent].Name == "request" {
				sum += self[i]
			}
		}
		fmt.Fprintf(out, "stage %-22s self %9.2f ms  %5.1f%%\n", name, ms(sum), 100*float64(sum)/float64(stages))
	}

	// Per-layer figures from the spans.
	prefillNs := 0.0
	for _, d := range tr.durations("model.prefill") {
		prefillNs += d
	}
	put("model.prefill_us_per_token", prefillNs/1e3/float64(prefilledTokens(st, reqs)), "us/token")
	put("model.qfeed_step_us", median(tr.durations("model.qfeed_step"))/1e3, "us")
	put("model.decode_step_us", median(tr.durations("model.decode_step"))/1e3, "us")
	put("search.run_us", median(tr.durations("search.run"))/1e3, "us")
	put("kvcache.seal_ms", median(tr.durations("kvcache.seal"))/1e6, "ms")

	var chunks, planTokens int
	byPrec := map[kvcache.Precision]int{}
	for _, ta := range answers {
		chunks += len(ta.plan.ChunkPrec)
		planTokens += ta.plan.NumTokens
		for p, c := range ta.plan.Counts() {
			byPrec[p] += c
		}
	}
	put("search.chunks", float64(chunks)/float64(len(answers)), "chunks")
	for _, p := range []kvcache.Precision{kvcache.FP16, kvcache.INT4, kvcache.INT2} {
		put("search.tokens_"+strings.ToLower(p.String())+"_frac", float64(byPrec[p])/float64(planTokens), "share")
	}

	// Layer microbenchmarks on the traced requests' own caches.
	var attend, attendPerTok, attendNR, fork, unembed, segs, ctxBytes []float64
	for _, ta := range answers[:min(microRequests, len(answers))] {
		d := ta.sealed.Config().HeadDim
		q := ta.dec.Output()
		if len(ta.qIDs) > 0 {
			q = rb.m.Embedding(ta.qIDs[0])
		}
		res := make([]float32, d)
		timeAttend := func(c *kvcache.Cache) float64 {
			f := c.Fork()
			return timeReps(microReps, func() {
				f.Attend(0, 0, q, 1, res)
				f.Attend(1, 0, q, 1, res)
			}) / 2
		}
		a := timeAttend(ta.sealed)
		attend = append(attend, a/1e3)
		attendPerTok = append(attendPerTok, a/float64(ta.sealed.ContextTokens()))
		nr := *ta.plan
		nr.Reorder = false
		cnr, err := ta.b.SealWith(&nr, ta.opts)
		if err != nil {
			return nil, nil, err
		}
		attendNR = append(attendNR, timeAttend(cnr)/1e3)
		fork = append(fork, timeReps(microReps, func() { ta.sealed.Fork() })/1e3)
		o := ta.dec.Output()
		unembed = append(unembed, timeReps(microReps, func() { rb.m.Unembed(o) })/1e3)
		stats := ta.sealed.Stats()
		segs = append(segs, float64(stats.Segments))
		ctxBytes = append(ctxBytes, float64(stats.ContextBytes))
	}
	put("kvcache.attend_us", median(attend), "us")
	put("kvcache.attend_ns_per_ctx_token", median(attendPerTok), "ns/token")
	put("kvcache.attend_noreorder_us", median(attendNR), "us")
	put("kvcache.fork_us", median(fork), "us")
	put("kvcache.segments_per_head", mean(segs), "segments")
	put("kvcache.context_bytes", mean(ctxBytes), "B")
	put("model.unembed_us", median(unembed), "us")

	kernelMetrics(answers[0], put)
	fmt.Fprintln(out, "note: quant.bytes_per_row is computed from tensor sizes (packed codes plus fp16 scales and zeros), not measured traffic")

	if err := apiMetrics(ref, reqs[:min(microRequests, len(reqs))], put); err != nil {
		return nil, nil, err
	}
	put("cocktail.answer_ms", median(untraced), "ms")

	if err := cacheReplay(ref, st, put); err != nil {
		return nil, nil, err
	}

	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	return m, problems, nil
}

// prefilledTokens counts the context tokens the traced run prefilled:
// every request's context on the cold path, the sessions' on the session
// path.
func prefilledTokens(st *stream, reqs []request) int {
	n := 0
	if st.sessions != nil {
		for _, c := range st.sessions {
			n += len(c)
		}
		return n
	}
	for _, r := range reqs {
		n += len(r.Context)
	}
	return n
}

// kernelMetrics times the quantized and FP16 score and value kernels over
// the real layer-1 KV rows of a traced request, quantized the way the
// request's plan sealed them.
func kernelMetrics(ta *tracedAnswer, put func(string, float64, string)) {
	cfg := ta.b.Config()
	d, rows := cfg.HeadDim, ta.b.NumTokens()
	kbuf := make([]float32, 0, rows*d)
	vbuf := make([]float32, 0, rows*d)
	for t := 0; t < rows; t++ {
		kbuf = append(kbuf, ta.b.KRow(1, 0, t)...)
		vbuf = append(vbuf, ta.b.VRow(1, 0, t)...)
	}
	q := ta.b.KRow(1, 0, rows-1)
	scores := make([]float32, rows)
	acc := make([]float32, d)
	perRow := func(ns float64) float64 { return ns / float64(rows) }

	for _, k := range []struct {
		name string
		bits quant.Bits
	}{{"int4", quant.INT4}, {"int2", quant.INT2}} {
		qk := quant.Quantize(kbuf, rows, d, quant.Config{Bits: k.bits, Axis: ta.opts.KAxis, GroupSize: ta.opts.GroupSize})
		qv := quant.Quantize(vbuf, rows, d, quant.Config{Bits: k.bits, Axis: ta.opts.VAxis, GroupSize: ta.opts.GroupSize})
		put("quant.scores_ns_per_row."+k.name, perRow(timeReps(microReps, func() { qk.ScoresInto(scores, q) })), "ns/row")
		put("quant.axpy_ns_per_row."+k.name, perRow(timeReps(microReps, func() {
			for t := 0; t < rows; t++ {
				qv.AxpyRow(acc, 0.001, t)
			}
		})), "ns/row")
		put("quant.bytes_per_row."+k.name, float64(qk.Bytes())/float64(rows), "B/row")
	}

	// FP16 rows go through the same widen-then-dot/axpy path the sealed
	// cache's FP16 segments use.
	fk, fv := f16.FromSlice(kbuf), f16.FromSlice(vbuf)
	row := make([]float32, d)
	put("quant.scores_ns_per_row.fp16", perRow(timeReps(microReps, func() {
		for t := 0; t < rows; t++ {
			f16.ToSliceInto(row, fk[t*d:(t+1)*d])
			scores[t] = mathx.Dot(q, row)
		}
	})), "ns/row")
	put("quant.axpy_ns_per_row.fp16", perRow(timeReps(microReps, func() {
		for t := 0; t < rows; t++ {
			f16.ToSliceInto(row, fv[t*d:(t+1)*d])
			mathx.Axpy(0.001, row, acc)
		}
	})), "ns/row")
	put("quant.bytes_per_row.fp16", float64(f16.Bytes(d)), "B/row")
}

// apiMetrics times the root package's public stages, untraced: a fresh
// Prefill, the StartAnswer of its first turn, each Turn.Step, and an
// Append onto the session.
func apiMetrics(p *cocktail.Pipeline, reqs []request, put func(string, float64, string)) error {
	var prefill, start, step, app []float64
	for _, r := range reqs {
		t0 := time.Now()
		s, err := p.Prefill(r.Context)
		if err != nil {
			return err
		}
		prefill = append(prefill, ms(time.Since(t0)))
		t0 = time.Now()
		turn, err := s.StartAnswer(r.Query)
		if err != nil {
			return err
		}
		start = append(start, ms(time.Since(t0)))
		for {
			t0 = time.Now()
			more := turn.Step()
			if !more {
				break
			}
			step = append(step, float64(time.Since(t0))/1e3)
		}
		chunk := r.Context[:appendChunkWords]
		t0 = time.Now()
		if err := s.Append(chunk); err != nil {
			return err
		}
		app = append(app, ms(time.Since(t0)))
	}
	put("cocktail.prefill_ms", median(prefill), "ms")
	put("cocktail.start_answer_ms", median(start), "ms")
	put("cocktail.turn_step_us", median(step), "us")
	put("cocktail.append_ms", median(app), "ms")
	return nil
}

// newSessionCache builds a SessionCache configured like the server's.
func newSessionCache(p *cocktail.Pipeline) *cocktail.SessionCache {
	return cocktail.NewSessionCache(p, cocktail.SessionCacheOptions{
		MaxBytes: serverCacheMB << 20, TTL: 15 * time.Minute, Shards: cocktail.DefaultCacheShards()})
}

// cacheReplay replays the head of the stream in process through a
// SessionCache sized like the server's, to split hit rates by artifact
// kind (the server reports them only combined), and times a prefill hit.
func cacheReplay(p *cocktail.Pipeline, st *stream, put func(string, float64, string)) error {
	sc := newSessionCache(p)
	var prefillLookups, prefillHits, sealLookups, sealHits int
	sessions := make([]*cocktail.Session, len(st.sessions))
	for i, base := range st.sessions {
		s, err := sc.Prefill(base)
		if err != nil {
			return err
		}
		sessions[i] = s
		prefillLookups++
		if s.CachedPrefill() {
			prefillHits++
		}
	}
	for _, r := range st.reqs[:min(cacheReplayRequests, len(st.reqs))] {
		var s *cocktail.Session
		if st.sessions != nil {
			s = sessions[r.Session]
			if r.Query == nil {
				if err := s.Append(r.Append); err != nil {
					return err
				}
				prefillLookups++
				if s.CachedPrefill() {
					prefillHits++
				}
				continue
			}
		} else {
			var err error
			if s, err = sc.Prefill(r.Context); err != nil {
				return err
			}
			prefillLookups++
			if s.CachedPrefill() {
				prefillHits++
			}
		}
		if _, err := s.Answer(r.Query); err != nil {
			return err
		}
		sealLookups++
		if s.CachedSeal() {
			sealHits++
		}
	}
	put("sessioncache.prefill_hit_rate", float64(prefillHits)/float64(max(prefillLookups, 1)), "share")
	put("sessioncache.sealed_hit_rate", float64(sealHits)/float64(max(sealLookups, 1)), "share")

	ctx := st.reqs[0].Context
	if _, err := sc.Prefill(ctx); err != nil {
		return err
	}
	var hit bool
	put("sessioncache.hit_lookup_us", timeReps(microReps, func() {
		s, err := sc.Prefill(ctx)
		hit = err == nil && s.CachedPrefill()
	})/1e3, "us")
	if !hit {
		return fmt.Errorf("session cache: a just-inserted context was not a hit")
	}
	return nil
}
