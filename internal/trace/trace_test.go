package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleLog() *Log {
	l := &Log{}
	l.Add(Record{ID: 0, Arrival: 0, Primary: 10, PrimaryDone: true, Response: 10})
	l.Add(Record{ID: 1, Arrival: 1.5, Primary: 100, PrimaryDone: true, Reissued: true,
		ReissueDelay: 20, Reissue: 30, ReissueDone: true, Response: 50})
	l.Add(Record{ID: 2, Arrival: 3, Primary: 7.25, PrimaryDone: true, Response: 7.25})
	return l
}

func TestLogAccessors(t *testing.T) {
	l := sampleLog()
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.PrimaryTimes(); !reflect.DeepEqual(got, []float64{10, 100, 7.25}) {
		t.Errorf("PrimaryTimes = %v", got)
	}
	if got := l.ReissueTimes(); !reflect.DeepEqual(got, []float64{30}) {
		t.Errorf("ReissueTimes = %v", got)
	}
	if got := l.ResponseTimes(); !reflect.DeepEqual(got, []float64{10, 50, 7.25}) {
		t.Errorf("ResponseTimes = %v", got)
	}
	if got := (&Log{}).ReissueTimes(); len(got) != 0 {
		t.Errorf("empty ReissueTimes = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, l.Records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Records, l.Records)
	}
}

func TestCSVEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Log{}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip Len = %d", got.Len())
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "a,b,c\n",
		"bad id":       strings.Join(csvHeader, ",") + "\nx,0,1,true,false,0,0,false,1\n",
		"bad float":    strings.Join(csvHeader, ",") + "\n1,zz,1,true,false,0,0,false,1\n",
		"bad bool":     strings.Join(csvHeader, ",") + "\n1,0,1,true,maybe,0,0,false,1\n",
		"nan":          strings.Join(csvHeader, ",") + "\n1,NaN,1,true,false,0,0,false,1\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: CSV round trip preserves arbitrary records exactly
// (float64 values survive via 'g' formatting with -1 precision).
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(id int64, arrival, primary, delay, reissue float64, reissued bool) bool {
		clean := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return v
		}
		rec := Record{
			ID: id, Arrival: clean(arrival), Primary: clean(primary),
			PrimaryDone: true, Reissued: reissued,
			ReissueDelay: clean(delay), Reissue: clean(reissue),
			ReissueDone: reissued, Response: clean(primary),
		}
		l := &Log{Records: []Record{rec}}
		var buf bytes.Buffer
		if err := l.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, l.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReadCSVLegacySchema checks that logs written before the
// reissue-copy count column existed still parse, with Reissues
// derived from the Reissued flag.
func TestReadCSVLegacySchema(t *testing.T) {
	legacy := "id,arrival,primary,primary_done,reissued,reissue_delay,reissue,reissue_done,response\n" +
		"0,0.5,2,true,false,0,0,false,2\n" +
		"1,1.5,3,true,true,1.25,2.5,true,3.75\n"
	log, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Fatalf("parsed %d records, want 2", log.Len())
	}
	if r := log.Records[0]; r.Reissued || r.Reissues != 0 {
		t.Errorf("record 0 = %+v, want no reissues", r)
	}
	r := log.Records[1]
	if !r.Reissued || r.Reissues != 1 || r.ReissueDelay != 1.25 || r.Reissue != 2.5 || !r.ReissueDone || r.Response != 3.75 {
		t.Errorf("record 1 = %+v, want the shifted legacy columns mapped through", r)
	}
	bad := "id,arrival,primary,primary_done,reissued,reissue_delay,reissue,reissue_done,WRONG\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("ReadCSV accepted a mangled legacy header")
	}
}

// FuzzReadCSV feeds ReadCSV arbitrary input, as reissue-opt does with
// a user's log file: it must return an error or a log, never panic,
// and a log it accepts must survive a WriteCSV/ReadCSV round trip
// unchanged.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleLog().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range l.Records {
			if r.Reissues < 0 {
				t.Fatalf("record %d has %d reissues", r.ID, r.Reissues)
			}
		}
		var out bytes.Buffer
		if err := l.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading written log: %v", err)
		}
		if !reflect.DeepEqual(again.Records, l.Records) {
			t.Fatalf("round trip changed records:\n%+v\n%+v", l.Records, again.Records)
		}
	})
}
