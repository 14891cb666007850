// Package trace records and persists response-time logs. A Log is the
// interchange format between a running system (simulated cluster,
// kvstore/searchengine harness, or a real service) and the offline
// policy optimizer: one Record per query capturing when its primary
// and optional reissue requests were dispatched and how long each
// took.
//
// Logs round-trip through CSV, which is human-inspectable and exact
// for every float64.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Record is the measured outcome of one query.
type Record struct {
	// ID is the query's sequence number.
	ID int64
	// Arrival is the absolute time the primary request was dispatched.
	Arrival float64
	// Primary is the primary request's response time (from its own
	// dispatch). Valid only when PrimaryDone; a primary can be left
	// incomplete when the cluster cancels outstanding copies after
	// the first response (the "tied requests" extension).
	Primary float64
	// PrimaryDone reports whether the primary ran to completion.
	// Always true when cancellation is disabled.
	PrimaryDone bool
	// Reissued reports whether a reissue request was actually sent.
	Reissued bool
	// Reissues is the number of reissue copies actually sent —
	// 0 or 1 for single-delay policies, possibly more for multi-delay
	// families (DoubleR, MultipleR). Reissued == (Reissues > 0).
	// Compositions that recompute reissue rates over a subset of
	// records (the tiered simulator's warmup trim) need the count,
	// not just the flag.
	Reissues int
	// ReissueDelay is the delay after Arrival at which the reissue
	// was dispatched (valid when Reissued).
	ReissueDelay float64
	// Reissue is the reissue request's response time from its own
	// dispatch (valid when Reissued and ReissueDone).
	Reissue float64
	// ReissueDone reports whether the reissue ran to completion.
	ReissueDone bool
	// Response is the query's end-to-end response time: the time from
	// Arrival to the first response from any copy.
	Response float64
}

// Log is an append-only collection of query records.
type Log struct {
	Records []Record
}

// Add appends a record.
func (l *Log) Add(r Record) { l.Records = append(l.Records, r) }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.Records) }

// PrimaryTimes extracts the response times of the primary requests
// that ran to completion (the optimizer's RX sample set).
func (l *Log) PrimaryTimes() []float64 {
	out := make([]float64, 0, len(l.Records))
	for _, r := range l.Records {
		if r.PrimaryDone {
			out = append(out, r.Primary)
		}
	}
	return out
}

// ReissueTimes extracts the response times of the reissue requests
// that were actually sent and ran to completion (the optimizer's RY
// sample set).
func (l *Log) ReissueTimes() []float64 {
	n := 0
	for _, r := range l.Records {
		if r.Reissued && r.ReissueDone {
			n++
		}
	}
	out := make([]float64, 0, n)
	for _, r := range l.Records {
		if r.Reissued && r.ReissueDone {
			out = append(out, r.Reissue)
		}
	}
	return out
}

// ResponseTimes extracts every query's end-to-end response time.
func (l *Log) ResponseTimes() []float64 {
	out := make([]float64, len(l.Records))
	for i, r := range l.Records {
		out[i] = r.Response
	}
	return out
}

var csvHeader = []string{
	"id", "arrival", "primary", "primary_done", "reissued",
	"reissues", "reissue_delay", "reissue", "reissue_done", "response",
}

// legacyCSVHeader is the schema before the reissue-copy count was
// recorded; ReadCSV still accepts it (deriving Reissues 0/1 from the
// flag) so previously recorded measurement logs stay readable.
var legacyCSVHeader = []string{
	"id", "arrival", "primary", "primary_done", "reissued",
	"reissue_delay", "reissue", "reissue_done", "response",
}

// WriteCSV writes the log with a header row.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for _, r := range l.Records {
		row[0] = strconv.FormatInt(r.ID, 10)
		row[1] = formatF(r.Arrival)
		row[2] = formatF(r.Primary)
		row[3] = strconv.FormatBool(r.PrimaryDone)
		row[4] = strconv.FormatBool(r.Reissued)
		row[5] = strconv.Itoa(r.Reissues)
		row[6] = formatF(r.ReissueDelay)
		row[7] = formatF(r.Reissue)
		row[8] = strconv.FormatBool(r.ReissueDone)
		row[9] = formatF(r.Response)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ReadCSV parses a log written by WriteCSV. Logs recorded before the
// reissue-copy count was added (the 9-column legacy schema) are
// still accepted, with Reissues derived from the Reissued flag.
func ReadCSV(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	want := csvHeader
	legacy := false
	if len(header) == len(legacyCSVHeader) {
		want, legacy = legacyCSVHeader, true
	} else if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d fields, want %d", len(header), len(csvHeader))
	}
	for i, h := range want {
		if header[i] != h {
			return nil, fmt.Errorf("trace: header field %d is %q, want %q", i, header[i], h)
		}
	}
	log := &Log{}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rec, err := parseRow(row, legacy)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		log.Add(rec)
	}
}

func parseRow(row []string, legacy bool) (Record, error) {
	var rec Record
	var err error
	if rec.ID, err = strconv.ParseInt(row[0], 10, 64); err != nil {
		return rec, fmt.Errorf("bad id %q: %w", row[0], err)
	}
	// The legacy schema has no "reissues" column at index 5; every
	// later column shifts down one.
	off := 1
	if legacy {
		off = 0
	}
	floats := []struct {
		dst  *float64
		name string
		s    string
	}{
		{&rec.Arrival, "arrival", row[1]},
		{&rec.Primary, "primary", row[2]},
		{&rec.ReissueDelay, "reissue_delay", row[5+off]},
		{&rec.Reissue, "reissue", row[6+off]},
		{&rec.Response, "response", row[8+off]},
	}
	for _, f := range floats {
		v, err := strconv.ParseFloat(f.s, 64)
		if err != nil || math.IsNaN(v) {
			return rec, fmt.Errorf("bad %s %q", f.name, f.s)
		}
		*f.dst = v
	}
	bools := []struct {
		dst  *bool
		name string
		s    string
	}{
		{&rec.PrimaryDone, "primary_done", row[3]},
		{&rec.Reissued, "reissued", row[4]},
		{&rec.ReissueDone, "reissue_done", row[7+off]},
	}
	for _, f := range bools {
		v, err := strconv.ParseBool(f.s)
		if err != nil {
			return rec, fmt.Errorf("bad %s %q: %w", f.name, f.s, err)
		}
		*f.dst = v
	}
	if legacy {
		if rec.Reissued {
			rec.Reissues = 1
		}
		return rec, nil
	}
	if rec.Reissues, err = strconv.Atoi(row[5]); err != nil || rec.Reissues < 0 {
		return rec, fmt.Errorf("bad reissues %q", row[5])
	}
	return rec, nil
}
