// Command perfbench is the repository's serving benchmark. It drives an
// in-process httpapi server over a loopback listener with one seeded
// workload, checks every served answer against the cold in-process
// pipeline, and prints the end-to-end metrics (--trace 0) or, after a
// separate traced in-process run of the same request stream, the
// per-layer metrics (--trace 1). The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	cocktail "repro"
	"repro/internal/httpapi"
	"repro/internal/parallel"
)

const (
	// traceDir receives the span trace of a traced run (relative to the
	// working directory, the repository root; git-ignored).
	traceDir  = ".bench_build"
	setupReps = 5
	// maxGenLagP95 is the validity limit on how late the open loop fired:
	// a run over it measured the load generator, not the server.
	maxGenLagP95 = 10 * time.Millisecond
	// drainGrace bounds how long after the window an open loop may still
	// send requests that were due inside it.
	drainGrace = 30 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-long, warm-sessions or cache-pressure")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := specByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	rep, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// window is the record of one timed run.
type window struct {
	outs     []outcome
	peakHeap uint64
	snap     httpapi.Metrics
}

func bench(w spec, seed uint64, length time.Duration, traced bool, out io.Writer) (*report, error) {
	// The input and the reference answers come from a pipeline of their
	// own, built outside every timed section.
	ref, err := cocktail.New(cocktail.Config{})
	if err != nil {
		return nil, err
	}
	st, err := generate(ref, w, seed, length)
	if err != nil {
		return nil, fmt.Errorf("generating the %s stream: %w", w.name, err)
	}
	ctx := context.Background()

	var tg *target
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if tg, err = setup(ctx, w, st); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := tg.stop(); err != nil {
				return nil, err
			}
		}
	}
	win, err := measure(ctx, w, st, tg, length)
	if serr := tg.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// Correctness gate: every served answer against the cold answer of
	// the same (context, query), after the timed window.
	byID := make(map[int]request, len(st.reqs))
	var served []request
	for _, o := range win.outs {
		byID[o.ID] = st.reqs[o.ID]
		if !o.Append {
			served = append(served, st.reqs[o.ID])
		}
	}
	// The accuracy and memory axes are computed over a fixed head of the
	// stream from its reference answers, which the gate holds every served
	// answer to: they depend on the seed alone, not on how many answers
	// the window served.
	scored := head(st.reqs, headAnswers)
	truths := newTruthSet(ref)
	if err := truths.fill(append(served, scored...), runtime.NumCPU()); err != nil {
		return nil, err
	}
	checkOutcomes(win.outs, byID, truths.get)

	stamp(out, w, seed, length, win.snap)
	rep := &report{Attempted: len(win.outs)}
	var firstErr error
	for _, o := range win.outs {
		if o.Err != nil {
			rep.Failed++
			if firstErr == nil {
				firstErr = o.Err
			}
		}
	}
	var problems []string
	if firstErr != nil {
		problems = append(problems, fmt.Sprintf("%d of %d requests failed; first: %v", rep.Failed, rep.Attempted, firstErr))
	}
	lags := make([]float64, 0, len(win.outs))
	for _, o := range win.outs {
		lags = append(lags, ms(o.Lag))
	}
	lagP95, _ := percentile(lags, 95)
	if w.openLoop && lagP95 > ms(maxGenLagP95) {
		problems = append(problems, fmt.Sprintf("generator lag p95 %.2f ms exceeds the %v validity limit", lagP95, maxGenLagP95))
	}

	var m map[string]metric
	if traced {
		m, problems, err = layerMetrics(ref, w, st, win, truths, lagP95, seed, out, problems)
		if err != nil {
			return nil, err
		}
	} else {
		m, problems = endToEnd(ref, win, scored, truths, median(setups), out, problems)
	}
	rep.Metrics = m
	printMetrics(out, m)
	for _, p := range problems {
		fmt.Fprintln(out, "FAIL:", p)
	}
	rep.Correct = len(problems) == 0
	return rep, nil
}

// setup builds the pipeline and the server and warms the workload up:
// warm-sessions opens its sessions, the other workloads replay their
// warm-up requests. It is what setup_s times.
func setup(ctx context.Context, w spec, st *stream) (*target, error) {
	tg, err := startTarget(w.clients)
	if err != nil {
		return nil, err
	}
	if st.sessions != nil {
		err = tg.openSessions(ctx, st.sessions, w.clients)
	} else {
		err = parallel.ForEach(w.clients, len(st.warmup), func(i int) error {
			return tg.send(ctx, st.warmup[i], time.Time{}).Err
		})
	}
	if err != nil {
		_ = tg.stop() // the setup error is the one worth reporting
		return nil, err
	}
	return tg, nil
}

// measure runs the timed window, sampling the heap throughout.
func measure(ctx context.Context, w spec, st *stream, tg *target, length time.Duration) (*window, error) {
	stop := make(chan struct{})
	peak := make(chan uint64)
	go sampleHeap(stop, peak)

	win := &window{}
	send := func(r request, start time.Time) outcome { return tg.send(ctx, r, start) }
	var err error
	if w.openLoop {
		win.outs = openLoop(ctx, st.reqs, w.clients, length+drainGrace, send)
	} else {
		win.outs, err = closedLoop(st, w.clients, length, send)
	}
	close(stop)
	win.peakHeap = <-peak
	win.snap = tg.api.Snapshot()
	return win, err
}

// sampleHeap reports the peak in-use heap (HeapInuse: objects plus
// unused space in in-use spans) seen every 5ms until stop is closed.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	var max uint64
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the user-visible metrics of the untraced run; the
// accuracy and memory axes come from the reference answers of scored.
func endToEnd(ref *cocktail.Pipeline, win *window, scored []request, truths *truthSet,
	setupS float64, out io.Writer, problems []string) (map[string]metric, []string) {
	var ttft, lat, gaps []float64
	for _, o := range win.outs {
		if o.Append || o.Err != nil {
			continue
		}
		ttft = append(ttft, ms(o.TTFT))
		lat = append(lat, ms(o.Latency))
		for _, g := range o.Gaps {
			gaps = append(gaps, ms(g))
		}
	}
	var kvBytes, ctxTokens int
	var scores []float64
	for _, r := range scored {
		t, _ := truths.get(r)
		kvBytes += t.contextKVBytes
		ctxTokens += len(r.Context)
		s, err := ref.Score(r.Dataset, t.answer, r.Ref)
		if err != nil {
			problems = append(problems, err.Error())
		}
		scores = append(scores, s)
	}
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"throughput_rps":     {float64(len(ttft)) / max(busyTime(win.outs).Seconds(), 1e-9), "1/s"},
		"task_score":         {mean(scores), "score"},
		"peak_heap_mb":       {float64(win.peakHeap) / (1 << 20), "MiB"},
		"kv_bytes_per_token": {float64(kvBytes) / float64(max(ctxTokens, 1)), "B/token"},
	}
	fmt.Fprintf(out, "scored: task_score and kv_bytes_per_token over the reference answers of the stream's first %d answers\n", len(scored))
	for _, pc := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"ttft_p50_ms", ttft, 50}, {"latency_p50_ms", lat, 50},
	} {
		v, ok := percentile(pc.xs, pc.p)
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: %d samples do not support the p%g", pc.name, len(pc.xs), pc.p))
		}
		m[pc.name] = metric{v, "ms"}
	}
	var wait []float64
	for _, o := range win.outs {
		if o.Err == nil && !o.Append {
			wait = append(wait, ms(o.TTFT-o.ServerTTFT))
		}
	}
	for _, xs := range []struct {
		name string
		xs   []float64
	}{{"ttft", ttft}, {"token_gap", gaps}, {"latency", lat}, {"client_queue_wait", wait}} {
		p, v, n, _ := highestSupported(xs.xs)
		fmt.Fprintf(out, "sample %s: n=%d, highest supported percentile p%g = %.3f ms\n", xs.name, n, p, v)
	}
	return m, problems
}

// head returns the first n requests of reqs that ask a query.
func head(reqs []request, n int) []request {
	var out []request
	for _, r := range reqs {
		if len(out) == n {
			break
		}
		if r.Query != nil {
			out = append(out, r)
		}
	}
	return out
}

// busyTime is how long at least one request was in flight: the union of
// the outcomes' send-to-done intervals. Answers per busy second is the
// throughput of a closed loop (always busy) and, for an open loop, the
// rate the server completes work at rather than the offered rate.
func busyTime(outs []outcome) time.Duration {
	iv := make([]outcome, 0, len(outs))
	for _, o := range outs {
		if !o.Sent.IsZero() {
			iv = append(iv, o)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Sent.Before(iv[j].Sent) })
	var busy time.Duration
	var end time.Time
	for _, o := range iv {
		start := o.Sent
		if start.Before(end) {
			start = end
		}
		if o.Done.After(start) {
			busy += o.Done.Sub(start)
			end = o.Done
		}
	}
	return busy
}

// stamp prints the host, build and run configuration the figures belong to.
func stamp(out io.Writer, w spec, seed uint64, length time.Duration, snap httpapi.Metrics) {
	commit := "unknown (not built from a git checkout)"
	if v := buildRevision(); v != "" {
		commit = v
	}
	load := fmt.Sprintf("closed loop, %d clients", w.clients)
	if w.openLoop {
		load = fmt.Sprintf("open loop, Poisson %.1f req/s over %d connections", w.rate, w.clients)
	}
	o := serverOptions()
	fmt.Fprintf(out, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "run: commit=%s workload=%s seed=%d window=%v load=%q\n", commit, w.name, seed, length, load)
	fmt.Fprintf(out, "server: workers=%d queue_depth=%d session_cache_mb=%d batch_max=%d batch_window_ms=%g cache_shards=%d policy=%s (all else default)\n",
		o.Workers, o.QueueDepth, o.SessionCacheMB, snap.Batching.BatchMax, snap.Batching.BatchWindowMS,
		len(snap.SessionCache.Shards), snap.SessionCache.Admission.Policy)
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// cpuModel reads the CPU model name, or "unknown" where the kernel does
// not report one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildRevision is the VCS revision the binary was built from, when the
// build recorded one.
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}
