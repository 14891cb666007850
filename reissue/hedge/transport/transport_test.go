package transport

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/sched"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

const unit = 200 * time.Microsecond

// kvFleet stands up one single-replica HTTP server per entry in
// speeds, all serving the same kvstore workload — the out-of-process
// topology, on loopback. It returns the servers (in replica order)
// and a transport client over them.
func kvFleet(t *testing.T, w *kvstore.Workload, speeds []float64, u time.Duration) ([]*ReplicaServer, *Client) {
	t.Helper()
	clusters := make([]*backend.Cluster, len(speeds))
	for r, s := range speeds {
		back, err := backend.NewKV(w, backend.Config{
			Replicas: 1, Unit: u, SpeedFactors: []float64{s},
		})
		if err != nil {
			t.Fatal(err)
		}
		clusters[r] = back
	}
	servers, urls, err := ServeAll(clusters)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	client, err := NewClient(ClientConfig{Replicas: urls, Unit: u})
	if err != nil {
		t.Fatal(err)
	}
	return servers, client
}

func kvWorkload(t *testing.T, queries int) *kvstore.Workload {
	t.Helper()
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 200, NumQueries: queries, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("NewClient accepted an empty fleet")
	}
	if _, err := NewClient(ClientConfig{Replicas: []string{"http://x"}, Unit: -time.Second}); err == nil {
		t.Error("NewClient accepted a negative unit")
	}
	if _, err := NewClient(ClientConfig{Replicas: []string{""}}); err == nil {
		t.Error("NewClient accepted an empty replica URL")
	}
	// Requests go straight to the HTTPClient's Transport, so a setting
	// only http.Client applies would be silently ignored.
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, hc := range map[string]*http.Client{
		"Timeout": {Timeout: time.Second},
		"Jar":     {Jar: jar},
		"CheckRedirect": {CheckRedirect: func(*http.Request, []*http.Request) error {
			return nil
		}},
	} {
		if _, err := NewClient(ClientConfig{Replicas: []string{"http://x"}, HTTPClient: hc}); err == nil {
			t.Errorf("NewClient accepted an HTTPClient with %s set", name)
		}
	}
	if _, err := NewClient(ClientConfig{Replicas: []string{"http://x"}, HTTPClient: &http.Client{}}); err != nil {
		t.Errorf("NewClient rejected an HTTPClient with only defaults: %v", err)
	}
}

// TestValueMatchesInProcess checks that a query served over HTTP
// returns the same result as executing it in process (modulo JSON
// turning the integer cardinality into a float64).
func TestValueMatchesInProcess(t *testing.T) {
	w := kvWorkload(t, 40)
	_, client := kvFleet(t, w, []float64{1, 1}, unit)
	for i := 0; i < 6; i++ {
		v, err := client.Request(i)(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		q := w.Queries[i]
		want, _ := w.Store.SInter(q.A, q.B)
		if got := v.(float64); int(got) != len(want) {
			t.Fatalf("query %d returned %v over HTTP, want %d", i, v, len(want))
		}
	}
}

// TestPerAttemptRouting verifies the transport's routing rule:
// attempt n of query i lands on replica (PrimaryReplica(i,R)+n) mod
// R — so DoubleR/MultipleR attempts beyond the first reissue spread
// across the whole fleet rather than revisiting the primary.
func TestPerAttemptRouting(t *testing.T) {
	w := kvWorkload(t, 40)
	servers, client := kvFleet(t, w, []float64{1, 1, 1, 1}, unit)
	const R = 4
	for _, i := range []int{0, 3, 17} {
		base := backend.PrimaryReplica(i, R)
		fn := client.Request(i)
		for attempt := 0; attempt < R+1; attempt++ {
			want := (base + attempt) % R
			before := servers[want].Handler.Served()
			if _, err := fn(context.Background(), attempt); err != nil {
				t.Fatal(err)
			}
			if got := servers[want].Handler.Served(); got != before+1 {
				t.Fatalf("query %d attempt %d did not land on replica %d", i, attempt, want)
			}
		}
	}
}

// TestCancelPropagatesToWire occupies a single-replica server with a
// long request and then cancels a queued one: the abort must travel
// through the HTTP connection and reclaim the copy on the replica —
// the loser-cancellation path of the hedger, across the wire.
func TestCancelPropagatesToWire(t *testing.T) {
	w := kvWorkload(t, 40)
	w.Times[0] = 300 // long occupant, model ms
	w.Times[1] = 1
	back, err := backend.NewKV(w, backend.Config{Replicas: 1, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	// The replica's handler, wrapped to report each request's arrival:
	// under load a fixed sleep can cancel the queued request before it
	// has even reached the replica, and then there is nothing to
	// reclaim there.
	h := NewServer(back)
	arrived := make(chan string, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		arrived <- r.URL.Query().Get("i")
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	client, err := NewClient(ClientConfig{Replicas: []string{srv.URL}, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}

	go client.Request(0)(context.Background(), 0)
	if i := <-arrived; i != "0" {
		t.Fatalf("request %s arrived first, want the occupant 0", i)
	}
	time.Sleep(time.Duration(5 * float64(unit))) // let it enter service

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived // the queued request is on the replica
		time.Sleep(time.Duration(5 * float64(unit)))
		cancel()
	}()
	if _, err := client.Request(1)(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued remote request returned %v, want context.Canceled", err)
	}

	// The server notices the peer is gone asynchronously; poll.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h.Cancelled() >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replica never recorded the cancelled copy")
}

// TestReplicaDownMidFlight is the transport fault test: the primary's
// replica process dies while its copy is in flight, and the hedged
// attempt on the surviving replica still answers the query. The
// failed primary is recorded, no query is lost, and the run is race-
// detector clean.
func TestReplicaDownMidFlight(t *testing.T) {
	w := kvWorkload(t, 40)
	for i := range w.Times {
		w.Times[i] = 50 // model ms: long enough to be mid-flight when the replica dies
	}
	servers, client := kvFleet(t, w, []float64{1, 1}, unit)

	// Find a query whose primary lands on replica 0 — the one we kill.
	i := 0
	for backend.PrimaryReplica(i, 2) != 0 {
		i++
	}
	hc, err := hedge.New(hedge.Config{
		Policy: reissue.SingleD{D: 5}, // reissue well before the 50 ms service completes
		Unit:   unit,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var v any
	var doErr error
	go func() {
		defer close(done)
		v, doErr = hc.Do(context.Background(), client.Request(i))
	}()

	// Let the primary enter service and the reissue dispatch, then
	// kill the primary's replica abruptly.
	time.Sleep(time.Duration(15 * float64(unit)))
	servers[0].Close()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hedged query never completed after replica death")
	}
	if doErr != nil {
		t.Fatalf("hedged query failed despite a surviving replica: %v", doErr)
	}
	q := w.Queries[i]
	want, _ := w.Store.SInter(q.A, q.B)
	if int(v.(float64)) != len(want) {
		t.Fatalf("surviving replica returned %v, want %d", v, len(want))
	}
	hc.Wait()
	s := hc.Snapshot()
	if s.Completed != 1 || s.Failures != 0 {
		t.Fatalf("snapshot after replica death: %+v", s)
	}
	if s.ReissueWins != 1 {
		t.Fatalf("the surviving replica's reissue did not win: %+v", s)
	}
	if len(s.Attempts) < 2 || s.Attempts[1].Wins != 1 || s.Attempts[1].Dispatched != 1 {
		t.Fatalf("attempt histogram did not record the rescue: %+v", s.Attempts)
	}
}

// TestLiveSystemOverTransport runs the reissue.System adapter over
// the HTTP fleet: the optimizer machinery's measurement contract
// (per-copy logs, warmup trimming, reissue rate) must hold across
// the process boundary exactly as in process.
func TestLiveSystemOverTransport(t *testing.T) {
	w := kvWorkload(t, 300)
	_, client := kvFleet(t, w, []float64{1, 1, 1}, unit)
	sys := &backend.LiveSystem{
		Back: client, N: 300, Warmup: 50,
		Lambda: 0.3, Seed: 13,
	}
	run := sys.Run(reissue.SingleR{D: 0, Q: 0.4})
	if len(run.Primary) != 250 {
		t.Fatalf("got %d primary samples, want 250 (warmup excluded)", len(run.Primary))
	}
	if len(run.Query) != 250 {
		t.Fatalf("got %d query samples, want 250", len(run.Query))
	}
	if len(run.Reissue) == 0 {
		t.Fatal("no reissue response times collected over the transport")
	}
	if run.ReissueRate < 0.25 || run.ReissueRate > 0.55 {
		t.Fatalf("reissue rate %.3f far from Q=0.4", run.ReissueRate)
	}
}

// TestNon200BodyDrainedForReuse pins the connection-reuse fix: an
// error response longer than the 512-byte message excerpt must still
// be drained to EOF, or net/http abandons the connection instead of
// returning it to the idle pool — and every cancelled loser's 499
// would burn a TCP connection on the hottest path.
func TestNon200BodyDrainedForReuse(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("e", 4096) // far beyond the 512-byte excerpt
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, big, statusClientClosedRequest)
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
		if _, err := client.Request(i)(context.Background(), 0); err == nil {
			t.Fatal("expected an error from the 499 replica")
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for 4 sequential error responses, want 1 (connection not reused)", n)
	}
}

// TestDeadlineExceededReports499 pins the cancellation taxonomy on
// the server: a hedger context whose deadline expires while the copy
// is still queued is the peer abandoning the request, exactly like an
// aborted connection — 499 and the Cancelled counter, not a 500
// server error.
func TestDeadlineExceededReports499(t *testing.T) {
	w := kvWorkload(t, 20)
	// One replica, every hold clamped to 40 model-ms, so a second
	// request is stuck in the queue for tens of wall-clock ms.
	back, err := backend.NewKV(w, backend.Config{
		Replicas: 1, Unit: time.Millisecond, MinServiceMS: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(back)
	release := make(chan error, 1)
	go func() {
		_, err := back.Request(0)(context.Background(), 0)
		release <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the occupant reach the replica

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/query?i=1&attempt=0", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("deadline-expired copy reported %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := srv.Cancelled(); got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	if err := <-release; err != nil {
		t.Fatalf("occupant failed: %v", err)
	}
}

// Test499WrapsContextCanceled is the regression test for the 499
// translation: a replica reporting cancelled-while-queued before the
// client's own context error surfaces must yield an error wrapping
// context.Canceled — the hedger classifies by errors.Is, and the old
// plain fmt.Errorf made it count the query as a backend Failure. The
// client context stays live for the whole request, as in the race the
// bug needs.
func Test499WrapsContextCanceled(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "context canceled while queued", statusClientClosedRequest)
	})}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })

	client, err := NewClient(ClientConfig{
		Replicas: []string{"http://" + lis.Addr().String()},
		Unit:     unit,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Request(0)(context.Background(), 0)
	if err == nil {
		t.Fatal("499 response returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("499 surfaced as %v, want an error wrapping context.Canceled", err)
	}

	// Other error statuses must NOT read as cancellations.
	srv500 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(srv500.Close)
	c500, err := NewClient(ClientConfig{Replicas: []string{srv500.URL}, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c500.Request(0)(context.Background(), 0); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("500 surfaced as %v, want a non-cancellation error", err)
	}
}

// TestFatalSurfacesServeError is the regression test for the
// swallowed serve-loop error: a replica whose listener dies out from
// under it must report the failure on Fatal() instead of silently
// looking like an infinitely slow server, while an ordinary Close
// closes the channel without an error.
func TestFatalSurfacesServeError(t *testing.T) {
	w := kvWorkload(t, 10)
	back, err := backend.NewKV(w, backend.Config{Replicas: 1, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}

	dead, err := Serve(back)
	if err != nil {
		t.Fatal(err)
	}
	dead.lis.Close() // the accept loop dies underneath the server
	select {
	case serveErr, ok := <-dead.Fatal():
		if !ok || serveErr == nil {
			t.Fatal("serve loop died without surfacing an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fatal serve error never surfaced")
	}
	if _, ok := <-dead.Fatal(); ok {
		t.Fatal("Fatal channel not closed after the error was delivered")
	}
	dead.Close()

	healthy, err := Serve(back)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case serveErr, ok := <-healthy.Fatal():
		if ok {
			t.Fatalf("ordinary Close surfaced %v on Fatal", serveErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fatal channel never closed after Close")
	}
}

// TestBatchedReplicaOverHTTP pins that batched execution crosses the
// wire: a Batch-discipline backend behind a replica server coalesces
// two concurrent HTTP requests into one batch — the handler executes
// through the cluster's own Request path, so the shared scheduling
// core decides membership exactly as in process.
func TestBatchedReplicaOverHTTP(t *testing.T) {
	w := kvWorkload(t, 10)
	log := &backend.BatchLog{}
	back, err := backend.NewKV(w, backend.Config{
		Replicas:   1,
		Unit:       unit,
		Discipline: sched.Batch,
		// A generous linger (in model ms) so the second request always
		// arrives inside the first one's window, whatever the HTTP
		// stack's jitter; the batch launches early on fill anyway.
		Batch:    sched.BatchConfig{Size: 2, LingerMS: 500},
		BatchLog: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(back)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewClient(ClientConfig{Replicas: []string{srv.URL()}, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, i := range []int{0, 1} {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Request(i)(context.Background(), 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	recs := log.Records()
	if len(recs) != 1 || len(recs[0].Members) != 2 {
		t.Fatalf("batch log = %+v, want one batch of both queries", recs)
	}
	got := map[int]bool{}
	for _, m := range recs[0].Members {
		if m.Reissue {
			t.Fatalf("member %+v marked as reissue", m)
		}
		got[m.Query] = true
	}
	if !got[0] || !got[1] {
		t.Fatalf("batch membership = %+v, want queries 0 and 1", recs[0].Members)
	}
}
