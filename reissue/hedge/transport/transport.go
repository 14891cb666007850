// Package transport carries the hedging runtime across a process
// boundary: a net/http RPC layer that serves the live replicated
// backends of reissue/hedge/backend as standalone replica servers,
// and a client that turns a fleet of replica URLs back into the
// hedge.Fn contract the hedging client executes.
//
// The in-process runtime and the transport share one routing rule:
// the primary copy of query i goes to replica backend.PrimaryReplica
// (i, R), and attempt n goes to replica (primary+n) mod R — so a
// reissue never shares the primary's queue, and multi-delay policies
// (DoubleR, MultipleR) spread across the whole fleet instead of
// bouncing between two replicas. Context cancellation propagates to
// the wire: when the hedger cancels a losing copy, the HTTP request
// is aborted, the server sees its request context cancelled, and a
// copy still queued on the replica is reclaimed — the same
// cancel-while-queued, never-preempt-in-service semantics as the
// in-process backend and the cluster simulator.
//
// Client implements backend.Source, so backend.RunOpenLoop and
// backend.LiveSystem — and through them the paper's optimizer
// machinery (ComputeOptimalSingleR, AdaptiveOptimize, the budget
// searches) — drive out-of-process replicas unchanged. See
// "reissue-topo -topo fleet -http" for the end-to-end demo with
// simulator cross-validation.
//
// Queue disciplines and batched execution cross the wire for free:
// the handler executes each query through the backing cluster's own
// Request path, whose replicas drain the shared scheduling core
// (internal/sched). A backend built with Discipline sched.Batch
// therefore coalesces concurrent HTTP requests into size-B batches
// behind the handler — two in-flight requests to one replica server
// can share a single hold — with membership recorded in the
// backend's BatchLog exactly as in-process.
//
// On the wire, attempt n of query i is GET /query?i=<i>&attempt=<n>,
// and a replica answers 200 with Content-Type application/json and
// the body json.NewEncoder(w).Encode(map[string]any{"value": v})
// writes for the result v; for an int that is exactly {"value":N}\n,
// N in decimal. Both sides keep this hot case off the general
// machinery without changing a byte. The server reads i and attempt
// straight from the raw query (one holding '%', '+' or ';' goes
// through url.ParseQuery) and writes an int result with strconv. The
// client hands a body of at most 64 bytes that is exactly
// {"value":N}\n, N a JSON integer -?(0|[1-9][0-9]*), straight to
// strconv.ParseFloat, which yields the float64 encoding/json would.
// Every other result and every other body goes through encoding/json,
// so any client and server speaking this format interoperate.
package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

// statusClientClosedRequest is the nginx-convention status a replica
// reports when the peer abandoned the request — here, the hedger
// cancelling a losing copy that was still queued.
const statusClientClosedRequest = 499

// StatusError is a replica's non-OK, non-499 HTTP response, carrying
// the status code and a snippet of the body so fault-handling layers
// (breakers, retry policies, the fault injector's classification)
// can match on structure instead of error strings. 499 is excluded
// because it is a cancellation echo, not a replica failure — it
// surfaces as an error wrapping context.Canceled instead.
type StatusError struct {
	// Replica is the index of the replica within the client's fleet.
	Replica int
	// Code is the HTTP status code the replica returned.
	Code int
	// Body is the response body, truncated to 512 bytes and trimmed.
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("transport: replica %d: status %d: %s", e.Replica, e.Code, e.Body)
}

// Server serves one replica over HTTP: typically a single-replica
// backend.Cluster standing in for a standalone replica process. The
// handler exposes
//
//	GET /query?i=<index>&attempt=<n>  ->  {"value": <result>}
//	GET /healthz                      ->  ok
//
// and executes each query through the cluster's own Request path, so
// queueing, speed factors, and the non-preemption rule are exactly
// the in-process semantics. Cancellation of the peer's request
// aborts a copy still waiting for the replica's server thread.
type Server struct {
	back      *backend.Cluster
	mux       *http.ServeMux
	served    atomic.Int64
	cancelled atomic.Int64
}

// NewServer wraps a backend cluster as an HTTP replica server. Pass a
// single-replica cluster to model one replica process; a multi-replica
// cluster is also valid (the forwarded attempt number spreads copies
// over its internal replicas).
func NewServer(back *backend.Cluster) *Server {
	s := &Server{back: back, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Served reports how many queries this replica completed.
func (s *Server) Served() int64 { return s.served.Load() }

// Cancelled reports how many queries were abandoned by the peer
// before completing — losing copies the hedger reclaimed.
func (s *Server) Cancelled() int64 { return s.cancelled.Load() }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	i, attempt, err := parseQuery(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// r.Context() is cancelled when the client aborts the request, so
	// a copy still queued on the replica is reclaimed right here.
	v, err := s.back.Request(i)(r.Context(), attempt)
	if err != nil {
		// Both context errors mean the peer abandoned the copy — an
		// aborted connection surfaces as Canceled, a deadline-carrying
		// hedger context as DeadlineExceeded. Neither is a server
		// failure, so both report 499, not 500.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.cancelled.Add(1)
			http.Error(w, err.Error(), statusClientClosedRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.served.Add(1)
	w.Header()["Content-Type"] = jsonContentType
	if n, ok := v.(int); ok {
		var buf [32]byte // fits {"value":math.MinInt64}\n
		w.Write(appendIntValue(buf[:0], n))
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"value": v})
}

// jsonContentType is shared by every response; net/http only reads
// the header values a handler sets.
var jsonContentType = []string{"application/json"}

var (
	errBadIndex   = errors.New("transport: bad or missing query index")
	errBadAttempt = errors.New("transport: bad attempt number")
)

// parseQuery reads the query index and attempt number from a /query
// request's raw query string, with url.Values.Get semantics: the first
// occurrence of a key wins and a missing attempt means 0. A raw query
// holding an escape ('%', '+') or a ';' goes through url.ParseQuery;
// any other is split in place, which is what ParseQuery would do to it
// without allocating the map.
func parseQuery(raw string) (i, attempt int, err error) {
	var is, as string
	if strings.ContainsAny(raw, "%+;") {
		q, _ := url.ParseQuery(raw)
		is, as = q.Get("i"), q.Get("attempt")
	} else {
		is, as = rawQueryValue(raw, "i"), rawQueryValue(raw, "attempt")
	}
	i, err = strconv.Atoi(is)
	if err != nil || i < 0 {
		return 0, 0, errBadIndex
	}
	if as != "" {
		attempt, err = strconv.Atoi(as)
		if err != nil || attempt < 0 {
			return 0, 0, errBadAttempt
		}
	}
	return i, attempt, nil
}

// rawQueryValue returns the value of key's first occurrence in an
// unescaped raw query, or "" when key is absent.
func rawQueryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// valuePrefix and valueSuffix frame an integer result on the wire:
// {"value":N} plus the newline json.Encoder appends.
const (
	valuePrefix = `{"value":`
	valueSuffix = "}\n"
)

// appendIntValue appends the response body for an int result: the
// bytes json.NewEncoder(w).Encode(map[string]any{"value": n}) writes.
func appendIntValue(b []byte, n int) []byte {
	b = append(b, valuePrefix...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, valueSuffix...)
}

// maxFastBody bounds the response bodies decodeIntValue considers.
const maxFastBody = 64

// decodeIntValue decodes a response body that is exactly
// {"value":N}\n, N a JSON integer (-?(0|[1-9][0-9]*)), at most
// maxFastBody bytes long, into the float64 encoding/json would produce
// for it. It reports false for any other body, which the caller then
// hands to encoding/json.
func decodeIntValue(b []byte) (float64, bool) {
	if len(b) > maxFastBody || !bytes.HasPrefix(b, []byte(valuePrefix)) || !bytes.HasSuffix(b, []byte(valueSuffix)) {
		return 0, false
	}
	num := b[len(valuePrefix) : len(b)-len(valueSuffix)]
	digits := num
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// ReplicaServer couples a Server with its own loopback listener,
// standing in for a standalone replica process. Close tears the
// listener and every open connection down immediately — the "replica
// process dies mid-flight" failure the fault tests exercise.
type ReplicaServer struct {
	Handler *Server
	srv     *http.Server
	lis     net.Listener
	url     string
	fatal   chan error
}

// Serve starts an HTTP replica server for back on an ephemeral
// loopback port.
func Serve(back *backend.Cluster) (*ReplicaServer, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	h := NewServer(back)
	rs := &ReplicaServer{
		Handler: h,
		srv:     &http.Server{Handler: h},
		lis:     lis,
		url:     "http://" + lis.Addr().String(),
		fatal:   make(chan error, 1),
	}
	go func() {
		// The serve loop's error used to be discarded: a replica whose
		// accept loop died looked exactly like an infinitely slow one
		// — every demo query just queued forever. Surface anything
		// other than the ordinary Close shutdown.
		if err := rs.srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			rs.fatal <- fmt.Errorf("transport: replica serve loop died: %w", err)
		}
		close(rs.fatal)
	}()
	return rs, nil
}

// URL returns the server's base URL.
func (rs *ReplicaServer) URL() string { return rs.url }

// Fatal returns a channel that delivers the serve loop's error if the
// replica dies for any reason other than Close (a listener torn down
// underneath it, an accept loop failure) and is then closed. Demos
// and fleet supervisors select on it so a dead replica is reported
// instead of masquerading as an infinitely slow one.
func (rs *ReplicaServer) Fatal() <-chan error { return rs.fatal }

// Close stops the server abruptly: the listener and all active
// connections are closed without waiting for in-flight requests.
func (rs *ReplicaServer) Close() error { return rs.srv.Close() }

// Kill crashes the replica mid-run: it closes only the listener, so
// the serve loop dies with an accept error — exactly what a replica
// process being killed looks like from outside — and the failure
// surfaces on Fatal(). In-flight connections are left to drain and
// new dials are refused. Close remains the orderly teardown (its
// ErrServerClosed never reaches Fatal); Kill is for fault injection
// and the crash regression tests.
func (rs *ReplicaServer) Kill() error { return rs.lis.Close() }

// WatchFleet supervises a fleet of replica servers: it returns a
// context derived from ctx that is cancelled the moment any server's
// serve loop dies, plus a stop function releasing the watchers and a
// func reporting the first fatal error (nil if none occurred). Live
// runners wrap their open-loop context with it so a crashed replica
// fails the run immediately with the real error, instead of the run
// limping along and surfacing the crash as timeout noise.
//
//	ctx, stop, fatal := transport.WatchFleet(ctx, servers...)
//	defer stop()
//	lats, err := backend.RunOpenLoop(ctx, src, client, n, lambda, seed)
//	if fe := fatal(); fe != nil {
//		err = fe
//	}
func WatchFleet(ctx context.Context, servers ...*ReplicaServer) (context.Context, context.CancelFunc, func() error) {
	wctx, cancel := context.WithCancel(ctx)
	var first atomic.Pointer[error]
	for _, rs := range servers {
		go func(rs *ReplicaServer) {
			select {
			case err, ok := <-rs.Fatal():
				// A closed channel without a value is the orderly Close
				// path — not fatal.
				if ok && err != nil {
					first.CompareAndSwap(nil, &err)
					cancel()
				}
			case <-wctx.Done():
			}
		}(rs)
	}
	return wctx, cancel, func() error {
		if p := first.Load(); p != nil {
			return *p
		}
		return nil
	}
}

// ServeAll starts one ReplicaServer per cluster and returns the
// servers with their base URLs, closing any already-started server on
// error.
func ServeAll(clusters []*backend.Cluster) ([]*ReplicaServer, []string, error) {
	servers := make([]*ReplicaServer, 0, len(clusters))
	urls := make([]string, 0, len(clusters))
	for _, back := range clusters {
		rs, err := Serve(back)
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return nil, nil, err
		}
		servers = append(servers, rs)
		urls = append(urls, rs.URL())
	}
	return servers, urls, nil
}

// ClientConfig parametrizes a transport client.
type ClientConfig struct {
	// Replicas is the fleet's base URLs, one per replica server, in
	// replica order. Routing is positional: attempt n of query i goes
	// to Replicas[(backend.PrimaryReplica(i, R)+n) mod R].
	Replicas []string
	// Unit is the wall-clock duration of one model millisecond; it
	// must match the replica servers' backend Unit. Default
	// time.Millisecond.
	Unit time.Duration
	// HTTPClient optionally supplies the HTTP transport: requests go
	// straight to its Transport's RoundTrip (http.DefaultTransport when
	// nil), since this protocol never redirects or sets cookies. A
	// client with Timeout, Jar or CheckRedirect set is rejected; bound
	// each attempt through hedge.Config instead. The default keeps
	// enough idle connections per replica that a hedged open loop
	// reuses connections instead of churning through ports.
	HTTPClient *http.Client
	// Breaker, when set, arms a per-replica circuit breaker: after
	// Threshold consecutive failures (connection errors, timeouts,
	// 5xx StatusErrors) a replica is evicted and attempts intended for
	// it are re-routed to the next replica in the (primary+attempt)
	// mod R order, until a timed half-open probe succeeds. 499s and
	// context cancellations are neutral — a cancelled loser says
	// nothing about replica health.
	Breaker *hedge.BreakerConfig
}

// Client issues queries against a fleet of HTTP replica servers and
// implements backend.Source, so RunOpenLoop and LiveSystem drive the
// remote fleet exactly as they drive an in-process cluster.
type Client struct {
	urls    []string
	unit    time.Duration
	rt      http.RoundTripper
	breaker *hedge.Breaker
}

var _ backend.Source = (*Client)(nil)

// NewClient validates the configuration and returns a Client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("transport: no replica URLs")
	}
	if cfg.Unit < 0 {
		return nil, fmt.Errorf("transport: negative Unit %v", cfg.Unit)
	}
	if cfg.Unit == 0 {
		cfg.Unit = time.Millisecond
	}
	urls := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		if u == "" {
			return nil, fmt.Errorf("transport: empty URL for replica %d", i)
		}
		urls[i] = strings.TrimRight(u, "/")
	}
	var rt http.RoundTripper
	if hc := cfg.HTTPClient; hc != nil {
		if hc.Timeout != 0 || hc.Jar != nil || hc.CheckRedirect != nil {
			return nil, fmt.Errorf("transport: HTTPClient may set only Transport (Timeout, Jar and CheckRedirect are never applied; bound attempts through hedge.Config)")
		}
		rt = hc.Transport
		if rt == nil {
			rt = http.DefaultTransport
		}
	} else {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 1024
		tr.MaxIdleConnsPerHost = 256
		rt = tr
	}
	c := &Client{urls: urls, unit: cfg.Unit, rt: rt}
	if cfg.Breaker != nil {
		b, err := hedge.NewBreaker(len(urls), *cfg.Breaker)
		if err != nil {
			return nil, err
		}
		c.breaker = b
	}
	return c, nil
}

// Breaker returns the client's circuit breaker, or nil when
// ClientConfig.Breaker was not set. Callers inspect it for health
// state; the client itself reports outcomes.
func (c *Client) Breaker() *hedge.Breaker { return c.breaker }

// Unit returns the wall-clock duration of one model millisecond.
func (c *Client) Unit() time.Duration { return c.unit }

// Replicas returns the fleet size.
func (c *Client) Replicas() int { return len(c.urls) }

// WireOverheadMS calibrates the per-request cost of the wire in model
// milliseconds: it sends probes sequential primary copies to the idle
// fleet and returns the median (upper median for an even count)
// residual between each measured round trip and the hold its replica
// delivers — the model time times[i] scaled by the routed replica's
// speed (nil speeds: homogeneous) and passed through the machine's
// sleep response. Adding it to a simulator trace gives the simulator
// the service times a remote copy actually sees. Negative residuals
// are kept: dropping them would turn the median into an upper quantile
// of the hold-prediction noise.
func (c *Client) WireOverheadMS(ctx context.Context, times, speeds []float64, probes int) (float64, error) {
	sr := backend.MeasureSleepResponse()
	unit := float64(c.unit)
	overs := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		if _, err := c.Request(i)(ctx, 0); err != nil {
			return 0, fmt.Errorf("transport: calibrating wire overhead: %w", err)
		}
		rt := float64(time.Since(t0)) / unit
		speed := 1.0
		if len(speeds) > 0 {
			speed = speeds[backend.PrimaryReplica(i, len(speeds))]
		}
		hold := float64(sr.Apply(time.Duration(times[i%len(times)]*speed*unit))) / unit
		overs = append(overs, rt-hold)
	}
	sort.Float64s(overs)
	return math.Max(0, overs[len(overs)/2]), nil
}

// Request returns the hedge.Fn for query i: attempt n is sent to
// replica (backend.PrimaryReplica(i, R)+n) mod R over HTTP, with the
// copy's context attached to the request so cancelling the loser
// aborts it on the wire.
func (c *Client) Request(i int) hedge.Fn {
	base := backend.PrimaryReplica(i, len(c.urls))
	return func(ctx context.Context, attempt int) (any, error) {
		idx := (base + attempt) % len(c.urls)
		if c.breaker != nil {
			r, err := c.breaker.Route(idx)
			if err != nil {
				return nil, fmt.Errorf("transport: replica %d: %w", idx, err)
			}
			idx = r
		}
		v, err := c.rpc(ctx, idx, i, attempt)
		// A replica is healthy only once its answer decodes. A
		// cancelled copy — a loser aborted on the wire or a 499 echo —
		// is neutral: it says nothing about the replica. A per-attempt
		// timeout (DeadlineExceeded) is the failure detector for
		// stalled replicas, and every other error (a refused dial — a
		// dead replica —, a 5xx, an undecodable body) is a failure.
		if c.breaker != nil && !errors.Is(err, context.Canceled) {
			c.breaker.Report(idx, err == nil)
		}
		return v, err
	}
}

// rpc sends the given attempt of query i to replica idx and decodes
// its answer.
func (c *Client) rpc(ctx context.Context, idx, i, attempt int) (any, error) {
	var ub [96]byte
	u := append(ub[:0], c.urls[idx]...)
	u = append(u, "/query?i="...)
	u = strconv.AppendInt(u, int64(i), 10)
	u = append(u, "&attempt="...)
	u = strconv.AppendInt(u, int64(attempt), 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, string(u), nil)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		// A cancelled loser surfaces here wrapping context.Canceled;
		// hedge.Client matches it with errors.Is through this return.
		return nil, fmt.Errorf("transport: replica %d: %w", idx, err)
	}
	defer resp.Body.Close()
	// Drain to EOF on every path: a body with unread bytes keeps the
	// connection out of the idle pool, so every copy — and every 499
	// from a cancelled loser, on the hottest path — would otherwise
	// pay a fresh TCP handshake and inflate the wire overhead.
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode == statusClientClosedRequest {
			// The replica reports the copy cancelled-while-queued.
			// Usually our own context is already done and the local
			// ctx error wins the race to this return — but when the
			// server notices first (its write beats the local
			// cancellation propagating), the error must still read as
			// a cancellation, not a replica failure: hedge.Client
			// classifies by errors.Is(context.Canceled).
			return nil, fmt.Errorf("transport: replica %d reported the copy cancelled while queued (%s): %w",
				idx, strings.TrimSpace(string(msg)), context.Canceled)
		}
		return nil, &StatusError{Replica: idx, Code: resp.StatusCode,
			Body: strings.TrimSpace(string(msg))}
	}
	var buf [maxFastBody]byte
	n, err := io.ReadFull(resp.Body, buf[:])
	var body io.Reader
	switch err {
	case io.EOF, io.ErrUnexpectedEOF: // the whole body is in buf
		if f, ok := decodeIntValue(buf[:n]); ok {
			return f, nil
		}
		body = bytes.NewReader(buf[:n])
	case nil: // longer than buf
		body = io.MultiReader(bytes.NewReader(buf[:]), resp.Body)
	default:
		return nil, fmt.Errorf("transport: decoding replica response: %w", err)
	}
	var out struct {
		Value any `json:"value"`
	}
	if err := json.NewDecoder(body).Decode(&out); err != nil {
		return nil, fmt.Errorf("transport: decoding replica response: %w", err)
	}
	return out.Value, nil
}
