package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/reissue/hedge/backend"
)

// instantReplica serves one single-replica backend whose every query
// is a zero-time hold running exec, and returns a client over it: the
// transport rung of the live cost ladder, with nothing to measure but
// the wire.
func instantReplica(tb testing.TB, exec func(i int) (any, error)) *Client {
	tb.Helper()
	back, err := backend.NewCustom([]float64{0}, exec, backend.Config{Replicas: 1, Unit: unit})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := Serve(back)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	client, err := NewClient(ClientConfig{Replicas: []string{srv.URL()}, Unit: unit})
	if err != nil {
		tb.Fatal(err)
	}
	return client
}

// instantInt answers every query with an int, the kvstore and search
// result type.
func instantInt(int) (any, error) { return 42, nil }

// BenchmarkRPC measures one keep-alive loopback RPC end to end: the
// client builds and sends the request, the replica server parses it,
// runs an instant query and encodes the answer, and the client
// decodes it. allocs/op counts both sides of the wire.
func BenchmarkRPC(b *testing.B) {
	fn := instantReplica(b, instantInt).Request(7)
	ctx := context.Background()
	if _, err := fn(ctx, 0); err != nil { // dial outside the timed loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := fn(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRPCAllocs pins the allocation ceiling of one keep-alive loopback
// RPC (both sides of the wire), so a change that puts fmt, url.Values
// or encoding/json back on the per-copy path fails here rather than
// in the end-to-end benchmark.
func TestRPCAllocs(t *testing.T) {
	fn := instantReplica(t, instantInt).Request(7)
	ctx := context.Background()
	if _, err := fn(ctx, 0); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if _, err := fn(ctx, 0); err != nil {
			t.Fatal(err)
		}
	})
	// 68 measured, 73 under the race detector, whose instrumentation
	// allocates too.
	const ceiling = 76
	if got > ceiling {
		t.Errorf("one loopback RPC: %.1f allocs/op, ceiling %d", got, ceiling)
	}
}

// TestIntValueBytesIdentical pins wire compatibility of the integer
// fast path: for every int, including the extremes, the handler writes
// exactly the bytes json.Encoder writes for {"value": n}, so an old
// client reads a new server unchanged, and the client's fast decoder
// yields the float64 encoding/json yields.
func TestIntValueBytesIdentical(t *testing.T) {
	for _, n := range []int{0, 1, -1, math.MinInt64, math.MaxInt64} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{"value": n})

		back, err := backend.NewCustom([]float64{0}, func(int) (any, error) { return n, nil },
			backend.Config{Replicas: 1, Unit: unit})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewServer(back).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?i=0&attempt=0", nil))
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("value %d: handler wrote %q, json.Encoder writes %q", n, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("value %d: Content-Type %q", n, ct)
		}

		var out struct{ Value any }
		if err := json.Unmarshal(want.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if f, ok := decodeIntValue(want.Bytes()); !ok || f != out.Value.(float64) {
			t.Errorf("value %d: fast decoder read (%v, %v), encoding/json %v", n, f, ok, out.Value)
		}
	}
}

// TestNonIntResultsCrossViaJSON checks that results other than int
// still cross the wire through encoding/json on both sides: a uint64
// (the inference backends' result), a struct, and a string longer
// than the client's fast-path buffer.
func TestNonIntResultsCrossViaJSON(t *testing.T) {
	long := strings.Repeat("s", 3*maxFastBody)
	for _, tc := range []struct {
		result any
		want   any
	}{
		{uint64(math.MaxUint64), float64(math.MaxUint64)},
		{struct {
			Hit  bool
			Name string
		}{true, "k"}, map[string]any{"Hit": true, "Name": "k"}},
		{long, long},
	} {
		client := instantReplica(t, func(int) (any, error) { return tc.result, nil })
		got, err := client.Request(0)(context.Background(), 0)
		if err != nil {
			t.Fatalf("%T result: %v", tc.result, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%T result crossed as %#v, want %#v", tc.result, got, tc.want)
		}
	}
}

// TestOKBodyDrainedForReuse is the 200-path sibling of
// TestNon200BodyDrainedForReuse: sequential successful answers must
// all travel over one connection, whether the body takes the integer
// fast path, is a value longer than the fast-path buffer, or carries
// whitespace past the end of its JSON value that the decoder never
// reads.
func TestOKBodyDrainedForReuse(t *testing.T) {
	replica := func(result any) http.Handler {
		back, err := backend.NewCustom([]float64{0}, func(int) (any, error) { return result, nil },
			backend.Config{Replicas: 1, Unit: unit})
		if err != nil {
			t.Fatal(err)
		}
		return NewServer(back)
	}
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{
		{"int", replica(42)},
		{"long", replica(strings.Repeat("v", 4096))},
		{"padded", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"value":"v"}`+strings.Repeat(" ", 64<<10))
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.h)
			t.Cleanup(srv.Close)
			tr, dials := countingTransport()
			client, err := NewClient(ClientConfig{Replicas: []string{srv.URL}, Unit: unit,
				HTTPClient: &http.Client{Transport: tr}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := client.Request(i)(context.Background(), 0); err != nil {
					t.Fatal(err)
				}
			}
			if n := dials.Load(); n != 1 {
				t.Fatalf("%d dials for 4 sequential 200 responses, want 1 (connection not reused)", n)
			}
		})
	}
}

// countingTransport returns a clone of the default transport that
// counts its dials.
func countingTransport() (*http.Transport, *atomic.Int64) {
	var dials atomic.Int64
	tr := http.DefaultTransport.(*http.Transport).Clone()
	base := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return base(ctx, network, addr)
	}
	return tr, &dials
}
