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
//     answer, which the batcher's flusher posts as soon as it is free.
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
	shCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	err := hs.Shutdown(shCtx)
	s.close()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
