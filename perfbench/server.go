package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	cocktail "repro"
	"repro/internal/httpapi"
	"repro/internal/parallel"
)

// serverOptions is the server configuration every workload runs: the
// defaults, with deployment-sized pool, queue and cache.
func serverOptions() httpapi.Options {
	return httpapi.Options{Workers: serverWorkers, QueueDepth: serverQueueDepth, SessionCacheMB: serverCacheMB}
}

// target is a running in-process server on a loopback listener and a
// client limited to the workload's connections.
type target struct {
	api    *httpapi.Server
	http   *http.Server
	client *client
	done   chan error
	// sessionIDs maps a warm-sessions pool index to its server session;
	// written during setup only.
	sessionIDs []string
}

// startTarget builds the pipeline and the server and starts serving.
func startTarget(conns int) (*target, error) {
	p, err := cocktail.New(cocktail.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{api: httpapi.NewServer(p, serverOptions()), done: make(chan error, 1)}
	t.http = &http.Server{Handler: t.api}
	go func() { t.done <- t.http.Serve(ln) }()
	t.client = newClient("http://"+ln.Addr().String(), conns)
	return t, nil
}

// stop shuts the server down and waits for it to exit.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.http.Shutdown(ctx)
	if serr := <-t.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	t.client.close()
	t.api.Close()
	return err
}

// openSessions opens one server session per base context, over at most
// conns connections at a time.
func (t *target) openSessions(ctx context.Context, bases [][]string, conns int) error {
	t.sessionIDs = make([]string, len(bases))
	return parallel.ForEach(conns, len(bases), func(i int) error {
		var info httpapi.SessionInfo
		if err := t.client.postJSON(ctx, "/v1/session", map[string]any{"context": bases[i]}, &info); err != nil {
			return fmt.Errorf("opening session %d: %w", i, err)
		}
		t.sessionIDs[i] = info.SessionID
		return nil
	})
}

// send issues one request the way the workload serves it: warm-sessions
// requests go to their session (an append-lane request only grows it),
// the others to the stateless answer endpoint. A zero start means a
// closed loop: timing starts when the answer is sent.
func (t *target) send(ctx context.Context, r request, start time.Time) outcome {
	if start.IsZero() {
		start = time.Now()
	}
	if r.Session < 0 || t.sessionIDs == nil {
		return t.client.stream(ctx, "/v1/answer?stream=1", map[string]any{"context": r.Context, "query": r.Query}, start)
	}
	id := t.sessionIDs[r.Session]
	if r.Query != nil {
		return t.client.stream(ctx, "/v1/session/"+id+"/answer?stream=1", map[string]any{"query": r.Query}, start)
	}
	o := outcome{Sent: start, Append: true}
	var info httpapi.SessionInfo
	o.Err = t.client.postJSON(ctx, "/v1/session/"+id+"/append", map[string]any{"context": r.Append}, &info)
	if o.Err == nil && info.ContextTokens != len(r.Context) {
		o.Err = fmt.Errorf("append: session holds %d tokens, want %d", info.ContextTokens, len(r.Context))
	}
	o.Done = time.Now()
	o.Latency = o.Done.Sub(start)
	return o
}
