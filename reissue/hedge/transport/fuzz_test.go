package transport

import (
	"encoding/json"
	"math"
	"net/url"
	"strconv"
	"testing"
)

// referenceParseQuery is the request decoding parseQuery replaces:
// url.Values.Get over r.URL.Query(), then strconv.Atoi.
func referenceParseQuery(raw string) (i, attempt int, bad bool) {
	q, _ := url.ParseQuery(raw)
	i, err := strconv.Atoi(q.Get("i"))
	if err != nil || i < 0 {
		return 0, 0, true
	}
	if a := q.Get("attempt"); a != "" {
		attempt, err = strconv.Atoi(a)
		if err != nil || attempt < 0 {
			return 0, 0, true
		}
	}
	return i, attempt, false
}

// FuzzQueryParams checks that the server's request decoding gives
// every raw query the verdict the url.Values-based decoding gave it:
// the same (index, attempt) pair, or the same 400. Seeds are in
// testdata/fuzz/FuzzQueryParams.
func FuzzQueryParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		i, attempt, err := parseQuery(raw)
		wi, wattempt, wbad := referenceParseQuery(raw)
		if (err != nil) != wbad || i != wi || attempt != wattempt {
			t.Fatalf("parseQuery(%q) = (%d, %d, %v), url.Values decoding gives (%d, %d, bad=%v)",
				raw, i, attempt, err, wi, wattempt, wbad)
		}
	})
}

// FuzzDecodeValue checks the client's fast decoder against
// encoding/json: for any body it either declines or returns exactly
// the value json.Unmarshal into struct{ Value any } returns. Seeds are
// in testdata/fuzz/FuzzDecodeValue.
func FuzzDecodeValue(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeIntValue(body)
		if !ok {
			return
		}
		var out struct{ Value any }
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("fast decoder accepted %q, which encoding/json rejects: %v", body, err)
		}
		want, isFloat := out.Value.(float64)
		if !isFloat || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fast decoder read %q as %v, encoding/json as %#v", body, got, out.Value)
		}
	})
}
