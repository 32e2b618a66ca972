package main

// Graceful-shutdown contract: once a /assign request has been accepted,
// SIGTERM (modelled here by cancelling serveUntil's context) must not
// drop it — the handler blocks on its batch flush, Shutdown waits for
// the handler, and the batcher drains whatever is still queued.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knor/internal/matrix"
)

func TestShutdownDropsNoAcceptedAssign(t *testing.T) {
	s, err := newServer(serverOptions{threads: 1, nodes: 1, publishEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	cents, err := matrix.FromRows([][]float64{{0, 0}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.register("m", cents); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serveUntil(ctx, ln, s, 10*time.Second) }()
	base := "http://" + ln.Addr().String()
	// Parking the flushes keeps every request in flight, unanswered,
	// until shutdown has begun, even on a slow runner.
	release := parkAssigns(t, s)

	const clients = 24
	var inFlight sync.WaitGroup
	var ok, bad atomic.Int64
	for c := 0; c < clients; c++ {
		inFlight.Add(1)
		go func(c int) {
			defer inFlight.Done()
			body := fmt.Sprintf(`{"model":"m","rows":[[%d,%d]]}`, c%2*10, c%2*10)
			req, _ := http.NewRequest("POST", base+"/v1/assign", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil {
				bad.Add(1)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
			} else {
				bad.Add(1)
			}
		}(c)
	}
	// Wait until every request is in flight inside the batcher (the
	// parked flush means none has been answered yet), then trigger
	// shutdown, and release the flushes only once the listener has
	// closed: all answers come while Shutdown waits on the handlers.
	waitFor(t, "every request to be in flight", func() bool {
		return s.batcher.InFlight()["m"] == clients
	})
	cancel()
	waitFor(t, "the listener to close", func() bool {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	release()
	inFlight.Wait()

	if err := <-serveErr; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if got := ok.Load(); got != clients {
		t.Fatalf("%d/%d accepted /assign requests answered, %d dropped",
			got, clients, bad.Load())
	}
}

// TestShutdownIdle checks a quiet server exits promptly and cleanly.
func TestShutdownIdle(t *testing.T) {
	s, err := newServer(serverOptions{threads: 1, nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, ln, s, time.Second) }()
	// One request through, then shutdown.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung")
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}
