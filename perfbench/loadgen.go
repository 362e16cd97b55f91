package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the client-side record of one request.
type outcome struct {
	ID int
	// Sent is when the request left the client and Lag how late that was
	// against the moment it could have left (its due time, or when a
	// connection freed up for it, whichever is later).
	Sent time.Time
	Lag  time.Duration
	// TTFT and Latency run from the request's start mark — its due time
	// in an open loop, its send time in a closed loop — to the first
	// token event and to the terminal result event.
	TTFT, Latency time.Duration
	// ServerTTFT runs from send to the first token event: the share of
	// TTFT the server and the transport are responsible for.
	ServerTTFT time.Duration
	// Gaps are the times between consecutive token events.
	Gaps []time.Duration
	// Streamed is the concatenation of every token event, Answer the
	// terminal result event's answer.
	Streamed, Answer []string
	ContextKVBytes   int
	Done             time.Time
	Err              error
	// Append marks an append-lane request: it has no answer, and its
	// outcome was checked by the session's reported context length.
	Append bool
}

// answerResult is the part of the server's result event the benchmark
// reads.
type answerResult struct {
	Answer []string
	Plan   struct{ ContextKVBytes int }
}

// client talks to one server over at most conns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.http.Do(req)
}

// postJSON sends body to path and decodes a 200 reply into out.
func (c *client) postJSON(ctx context.Context, path string, body, out any) error {
	resp, err := c.post(ctx, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stream posts body to an SSE answer endpoint and records the outcome;
// start is the mark TTFT and latency are timed from.
func (c *client) stream(ctx context.Context, path string, body any, start time.Time) outcome {
	o := outcome{Sent: time.Now()}
	o.Err = c.readStream(ctx, path, body, start, &o)
	o.Done = time.Now()
	o.Latency = o.Done.Sub(start)
	if o.TTFT == 0 {
		// An empty answer has no token event: its first output is the
		// result itself.
		o.TTFT, o.ServerTTFT = o.Latency, o.Done.Sub(o.Sent)
	}
	if o.Err == nil && strings.Join(o.Streamed, " ") != strings.Join(o.Answer, " ") {
		o.Err = fmt.Errorf("streamed tokens %q differ from the result %q", o.Streamed, o.Answer)
	}
	return o
}

func (c *client) readStream(ctx context.Context, path string, body any, start time.Time, o *outcome) error {
	resp, err := c.post(ctx, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	rd := bufio.NewReader(resp.Body)
	var event string
	var last time.Time
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended without a result event: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			now := time.Now()
			switch event {
			case "token":
				var tok struct{ Tokens []string }
				if err := json.Unmarshal(data, &tok); err != nil {
					return fmt.Errorf("token event: %w", err)
				}
				if last.IsZero() {
					o.TTFT, o.ServerTTFT = now.Sub(start), now.Sub(o.Sent)
				} else {
					o.Gaps = append(o.Gaps, now.Sub(last))
				}
				last = now
				o.Streamed = append(o.Streamed, tok.Tokens...)
			case "result":
				var res answerResult
				if err := json.Unmarshal(data, &res); err != nil {
					return fmt.Errorf("result event: %w", err)
				}
				o.Answer, o.ContextKVBytes = res.Answer, res.Plan.ContextKVBytes
				return nil
			default:
				return fmt.Errorf("%s event: %s", event, data)
			}
		}
	}
}

// openLoop fires reqs at their due times over at most clients
// connections, in due order. A request whose due time passes while every
// connection is busy waits for the next free one; its TTFT and latency
// still count from its due time, so a stall shows on every request it
// delays. Requests not sent by deadline are recorded as failed.
func openLoop(ctx context.Context, reqs []request, clients int, deadline time.Duration, send func(r request, start time.Time) outcome) []outcome {
	outs := make([]outcome, len(reqs))
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				free := time.Now()
				due := t0.Add(r.Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if time.Since(t0) > deadline || ctx.Err() != nil {
					outs[i] = outcome{ID: r.ID, Err: fmt.Errorf("not sent before the %v deadline", deadline)}
					continue
				}
				ready := due
				if free.After(due) {
					ready = free
				}
				o := send(r, due)
				o.ID, o.Lag = r.ID, o.Sent.Sub(ready)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop runs one caller per client until window has passed. Caller
// c serves, in stream order, the requests route gives it, each sent as
// soon as the previous reply arrived and timed from its own send (send
// gets a zero start). A caller that has been handed every request
// generated so far extends the stream (st.more) first, so the loop never
// runs out of requests.
func closedLoop(st *stream, clients int, window time.Duration, send func(r request, start time.Time) outcome) ([]outcome, error) {
	var mu sync.Mutex
	queues := make([][]request, clients)
	routed := 0
	next := func(c int) (request, error) {
		mu.Lock()
		defer mu.Unlock()
		for len(queues[c]) == 0 {
			if routed == len(st.reqs) {
				if err := st.more(); err != nil {
					return request{}, err
				}
			}
			for ; routed < len(st.reqs); routed++ {
				r := st.reqs[routed]
				queues[route(r, clients)] = append(queues[route(r, clients)], r)
			}
		}
		r := queues[c][0]
		queues[c] = queues[c][1:]
		return r, nil
	}
	t0 := time.Now()
	per := make([][]outcome, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < window {
				r, err := next(c)
				if err != nil {
					errs[c] = err
					return
				}
				o := send(r, time.Time{})
				o.ID = r.ID
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, errors.Join(errs...)
}

// route is the closed-loop client that serves r: a session's requests
// stay on one client, in stream order; the others alternate.
func route(r request, clients int) int {
	if r.Session >= 0 {
		return r.Session % clients
	}
	return r.ID % clients
}
