package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	cocktail "repro"
)

func TestStreamsDeterministicBySeed(t *testing.T) {
	p, err := cocktail.New(cocktail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(w spec, seed uint64) []byte {
		st, err := generate(p, w, seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// A closed-loop stream extended during the window continues the
		// same sequence.
		for i := 0; st.more != nil && i < 2; i++ {
			if err := st.more(); err != nil {
				t.Fatal(err)
			}
		}
		data, err := json.Marshal([]any{st.reqs, st.warmup, st.sessions})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, w := range specs {
		a, b, c := encode(w, 7), encode(w, 7), encode(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
		ok    bool
	}{
		{n: 1000, wantP: 99, wantV: 990, ok: true},
		{n: 200, wantP: 95, wantV: 190, ok: true},
		{n: 199, wantP: 90, wantV: 180, ok: true},
		{n: 100, wantP: 90, wantV: 90, ok: true},
		{n: 99, wantP: 75, wantV: 75, ok: true},
		{n: 20, wantP: 50, wantV: 10, ok: true},
		{n: 19, ok: false},
	} {
		p, v, n, ok := highestSupported(seq(tc.n))
		if ok != tc.ok || n != tc.n || (ok && (p != tc.wantP || v != tc.wantV)) {
			t.Errorf("n=%d: got p%g=%g n=%d ok=%v, want p%g=%g ok=%v", tc.n, p, v, n, ok, tc.wantP, tc.wantV, tc.ok)
		}
	}
}

// fakeServer answers every request with the given SSE body after delay(i)
// for the i-th request, or with status when it is not 200.
func fakeServer(t *testing.T, status int, body string, delay func(i int64) time.Duration) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay(n.Add(1) - 1))
		if status != http.StatusOK {
			http.Error(w, `{"error":"busy"}`, status)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

const goodStream = "event: token\ndata: {\"tokens\":[\"a\"]}\n\n" +
	"event: token\ndata: {\"tokens\":[\"b\"]}\n\n" +
	"event: result\ndata: {\"Answer\":[\"a\",\"b\"],\"Plan\":{\"ContextKVBytes\":64}}\n\n"

func sendTo(c *client) func(r request, start time.Time) outcome {
	return func(r request, start time.Time) outcome {
		if start.IsZero() {
			start = time.Now()
		}
		return c.stream(context.Background(), "/v1/answer?stream=1", map[string]any{"context": r.Context, "query": r.Query}, start)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := fakeServer(t, http.StatusOK, goodStream, func(i int64) time.Duration {
		if i == 0 {
			return stall
		}
		return 0
	})
	c := newClient(srv.URL, 1)
	defer c.close()
	reqs := make([]request, 8)
	for i := range reqs {
		reqs[i] = request{ID: i, Due: time.Duration(i) * 20 * time.Millisecond}
	}
	outs := openLoop(context.Background(), reqs, 1, 10*time.Second, sendTo(c))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
		if o.Lag > 50*time.Millisecond {
			t.Errorf("request %d: generator lag %v; waiting for the busy connection is not generator lag", i, o.Lag)
		}
	}
	// Every request due during the stall waited for it: its latency from
	// due time carries the rest of the stall.
	for i := 1; i < len(outs); i++ {
		if want := stall - reqs[i].Due; outs[i].Latency < want-20*time.Millisecond {
			t.Errorf("request %d due at %v: latency %v, want at least %v", i, reqs[i].Due, outs[i].Latency, want)
		}
	}
	if outs[1].Latency <= outs[len(outs)-1].Latency {
		t.Errorf("latency should shrink as the stall recedes: first %v, last %v", outs[1].Latency, outs[len(outs)-1].Latency)
	}
}

func TestClosedLoopNeverRunsOut(t *testing.T) {
	srv := fakeServer(t, http.StatusOK, goodStream, func(int64) time.Duration { return 0 })
	c := newClient(srv.URL, 2)
	defer c.close()
	st := &stream{}
	st.more = func() error {
		for i := 0; i < 4; i++ {
			st.reqs = append(st.reqs, request{ID: len(st.reqs), Session: -1})
		}
		return nil
	}
	outs, err := closedLoop(st, 2, 300*time.Millisecond, sendTo(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) <= 8 {
		t.Fatalf("served %d requests in 300ms against an instant server; the stream was not extended", len(outs))
	}
	seen := make(map[int]bool)
	for _, o := range outs {
		if o.Err != nil || seen[o.ID] {
			t.Fatalf("request %d: err %v, served twice %v", o.ID, o.Err, seen[o.ID])
		}
		seen[o.ID] = true
	}
}

func TestBusyTime(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	outs := []outcome{
		{Sent: at(50), Done: at(80)}, // overlaps the first
		{Sent: at(0), Done: at(60)},
		{Sent: at(60), Done: at(70)}, // inside the union so far
		{Sent: at(100), Done: at(120)},
		{}, // never sent
	}
	if got, want := busyTime(outs), 100*time.Millisecond; got != want {
		t.Errorf("busy time %v, want %v", got, want)
	}
}

func TestFailuresCounted(t *testing.T) {
	reqs := []request{{ID: 0, Context: []string{"x"}, Query: []string{"q"}}}
	byID := map[int]request{0: reqs[0]}
	right := func(request) (truth, bool) { return truth{answer: []string{"a", "b"}, contextKVBytes: 64}, true }
	wrong := func(request) (truth, bool) { return truth{answer: []string{"a", "c"}, contextKVBytes: 64}, true }
	noDelay := func(int64) time.Duration { return 0 }
	run := func(srv *httptest.Server) []outcome {
		c := newClient(srv.URL, 1)
		defer c.close()
		return openLoop(context.Background(), reqs, 1, 10*time.Second, sendTo(c))
	}

	good := run(fakeServer(t, http.StatusOK, goodStream, noDelay))
	if bad := checkOutcomes(good, byID, right); bad != 0 || good[0].Err != nil {
		t.Fatalf("correct answer marked failed: %v", good[0].Err)
	}
	if bad := checkOutcomes(good, byID, wrong); bad != 1 || good[0].Err == nil {
		t.Error("a wrong answer was not counted as failed")
	}
	shed := run(fakeServer(t, http.StatusServiceUnavailable, "", noDelay))
	if shed[0].Err == nil {
		t.Error("a 503 was not counted as failed")
	}
	torn := "event: token\ndata: {\"tokens\":[\"a\"]}\n\n" +
		"event: result\ndata: {\"Answer\":[\"a\",\"b\"],\"Plan\":{\"ContextKVBytes\":64}}\n\n"
	if o := run(fakeServer(t, http.StatusOK, torn, noDelay)); o[0].Err == nil {
		t.Error("token events that differ from the result were not counted as failed")
	}
	errEvent := "event: error\ndata: {\"error\":\"boom\"}\n\n"
	if o := run(fakeServer(t, http.StatusOK, errEvent, noDelay)); o[0].Err == nil {
		t.Error("a mid-stream error event was not counted as failed")
	}
}
