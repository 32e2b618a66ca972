package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// serveUntil serves s on ln until ctx is cancelled (SIGINT/SIGTERM in
// main), then shuts down without dropping accepted work:
//
//  1. http.Server.Shutdown closes the listener and waits — up to
//     drainWait — for every in-flight handler to return. An /assign
//     request that was already accepted keeps blocking on its batch
//     answer, so while Shutdown waits, a kicker goroutine calls the
//     batcher's Flush every few milliseconds: queued rows are answered
//     immediately even when a batch window (serverOptions.maxWait)
//     holds them.
//  2. s.close() then stops the batcher, which answers anything still
//     queued before its flusher exits, and is a no-op if nothing is.
//
// Returns nil on a clean drain; context.DeadlineExceeded if drainWait
// elapsed with handlers still in flight; any other error from Serve.
func serveUntil(ctx context.Context, ln net.Listener, s *server, drainWait time.Duration) error {
	hs := &http.Server{Handler: s.mux()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.close()
		return err
	case <-ctx.Done():
	}
	// Flip readiness first: a load balancer polling /readyz stops
	// routing here while the in-flight requests drain below.
	s.draining.Store(true)
	stopKick := make(chan struct{})
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.batcher.Flush()
			case <-stopKick:
				return
			}
		}
	}()
	shCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	err := hs.Shutdown(shCtx)
	close(stopKick)
	s.close()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
