package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

// TestStatusErrorTyped pins the typed error for non-200/non-499
// responses: a *StatusError carrying the replica, the status code,
// and a bounded body excerpt — with the response body still drained
// so the connection is reused, not torn down.
func TestStatusErrorTyped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 4096)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend exploded: "+big, http.StatusServiceUnavailable)
	})}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })

	tr, dials := countingTransport()
	client, err := NewClient(ClientConfig{
		Replicas:   []string{"http://" + lis.Addr().String()},
		Unit:       unit,
		HTTPClient: &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, err := client.Request(i)(context.Background(), 0)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v (%T), want *StatusError", err, err)
		}
		if se.Code != http.StatusServiceUnavailable {
			t.Errorf("Code = %d, want 503", se.Code)
		}
		if se.Replica != 0 {
			t.Errorf("Replica = %d, want 0", se.Replica)
		}
		if !strings.HasPrefix(se.Body, "backend exploded") {
			t.Errorf("Body excerpt %q missing the server's message", se.Body)
		}
		if len(se.Body) > 512 {
			t.Errorf("Body excerpt is %d bytes, want <= 512", len(se.Body))
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("a status error must not classify as a cancellation: %v", err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for 4 sequential 503s, want 1 (body not drained, connection not reused)", n)
	}
}

// TestKillMidRunFailsFast is the satellite regression for fleet
// supervision: a replica whose listener is killed mid-run must fail
// the open loop immediately with the serve loop's real error, via
// WatchFleet's context.
func TestKillMidRunFailsFast(t *testing.T) {
	w := kvWorkload(t, 4000)
	servers, client := kvFleet(t, w, []float64{1, 1}, unit)

	wctx, stop, fatal := WatchFleet(context.Background(), servers...)
	defer stop()

	hc, err := hedge.New(hedge.Config{Policy: reissue.None{}, Unit: unit, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Kill replica 0's listener shortly into the run; the serve loop
	// dies with a real error (not ErrServerClosed), Fatal fires, and
	// the watch context aborts the open loop.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(20 * time.Millisecond)
		if err := servers[0].Kill(); err != nil {
			t.Errorf("Kill: %v", err)
		}
	}()

	start := time.Now()
	// 4000 queries at 0.05/model-ms is ~16s of wall clock — only the
	// fleet watcher ending the run early lets this finish fast.
	_, err = backend.RunOpenLoop(wctx, client, hc, 4000, 0.05, 7)
	elapsed := time.Since(start)
	<-killed

	if err == nil {
		t.Fatal("RunOpenLoop succeeded over a killed replica, want failure")
	}
	fe := fatal()
	if fe == nil {
		t.Fatal("fatal() = nil, want the dead replica's serve error")
	}
	if !strings.Contains(fe.Error(), "serve loop died") {
		t.Errorf("fatal() = %v, want the serve-loop error", fe)
	}
	if elapsed > 5*time.Second {
		t.Errorf("run took %v after the kill, want immediate failure", elapsed)
	}
}

// TestCloseIsNotFatal pins the orderly-shutdown path: Close must not
// trip WatchFleet.
func TestCloseIsNotFatal(t *testing.T) {
	w := kvWorkload(t, 50)
	servers, _ := kvFleet(t, w, []float64{1}, unit)
	wctx, stop, fatal := WatchFleet(context.Background(), servers...)
	defer stop()
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wctx.Done():
		t.Fatalf("orderly Close cancelled the watch context: %v", fatal())
	case <-time.After(100 * time.Millisecond):
	}
	if fe := fatal(); fe != nil {
		t.Fatalf("fatal() = %v after orderly Close, want nil", fe)
	}
}

// TestUndecodableBodyTripsBreaker is the regression test for breaker
// accounting: a replica answering 200 with a body that does not decode
// has failed the copy, so with Threshold 1 a single such answer opens
// its breaker. Success used to be reported before decoding, which kept
// a garbage-answering replica looking healthy.
func TestUndecodableBodyTripsBreaker(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "garbage")
	}))
	t.Cleanup(srv.Close)
	client, err := NewClient(ClientConfig{
		Replicas: []string{srv.URL},
		Unit:     unit,
		Breaker:  &hedge.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Request(0)(context.Background(), 0); err == nil {
		t.Fatal("an undecodable 200 body returned no error")
	}
	if st := client.Breaker().State(0); st != hedge.BreakerOpen {
		t.Fatalf("breaker %v after an undecodable answer, want open", st)
	}
}

// TestDialErrorNamesReplica checks that a refused dial — a dead
// replica — reports which replica it was.
func TestDialErrorNamesReplica(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + lis.Addr().String()
	lis.Close()
	client, err := NewClient(ClientConfig{Replicas: []string{addr}, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Request(0)(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "transport: replica 0: ") {
		t.Fatalf("dial to a closed port returned %v, want an error naming replica 0", err)
	}
}
