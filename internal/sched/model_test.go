package sched

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// refQueue is the plain-slice reference model of Queue: the disciplines
// written out directly, with no ring buffers and no pooling.
type refQueue struct {
	d          Discipline
	fifo, reis []*item
	conns      map[int][]*item
	order      []int
	cursor     int
}

func newRefQueue(d Discipline) *refQueue {
	return &refQueue{d: d, conns: map[int][]*item{}, cursor: -1}
}

func (m *refQueue) waiting() int {
	n := len(m.fifo) + len(m.reis)
	for _, c := range m.order {
		n += len(m.conns[c])
	}
	return n
}

func (m *refQueue) push(x *item, reissue bool, conn int) {
	switch m.d {
	case PrioFIFO, PrioLIFO:
		if reissue {
			m.reis = append(m.reis, x)
		} else {
			m.fifo = append(m.fifo, x)
		}
	case RoundRobin:
		if _, ok := m.conns[conn]; !ok {
			m.order = append(m.order, conn)
		}
		m.conns[conn] = append(m.conns[conn], x)
	default:
		m.fifo = append(m.fifo, x)
	}
}

func (m *refQueue) pop() *item {
	var x *item
	switch {
	case len(m.fifo) > 0:
		x, m.fifo = m.fifo[0], m.fifo[1:]
	case len(m.reis) > 0 && m.d == PrioLIFO:
		x, m.reis = m.reis[len(m.reis)-1], m.reis[:len(m.reis)-1]
	case len(m.reis) > 0:
		x, m.reis = m.reis[0], m.reis[1:]
	case m.d == RoundRobin:
		for range m.order {
			m.cursor = (m.cursor + 1) % len(m.order)
			c := m.order[m.cursor]
			if cq := m.conns[c]; len(cq) > 0 {
				x, m.conns[c] = cq[0], cq[1:]
				break
			}
		}
	}
	return x
}

func (m *refQueue) reset() {
	m.fifo, m.reis, m.order, m.cursor = nil, nil, nil, -1
	m.conns = map[int][]*item{}
}

// queueTestBatch is the Batch discipline's configuration in the
// model checks.
var queueTestBatch = BatchConfig{Size: 3, LingerMS: 1}

// checkQueueOps interprets ops as a sequence of queue operations under
// discipline d (push, pop, PopBatch, cancel, Reset; see the switch),
// runs them against a Queue and the reference model, and reports the
// first divergence or broken property:
//   - pops return exactly the model's item, so no request is lost,
//     reordered or served twice, and a drain after every Reset and at
//     the end serves each admitted request exactly once;
//   - PopBatch never returns more than its max (the Batch Size under
//     Batch) and returns exactly the model's live members;
//   - under PrioFIFO and PrioLIFO no reissue is served while a primary
//     waits;
//   - Waiting matches the model after every operation.
//
// It returns how often the FIFO ring's live span wrapped past the end
// of its backing array.
func checkQueueOps(d Discipline, ops []byte) (wraps int, err error) {
	q := MustQueue[*item](Config{Discipline: d, Batch: queueTestBatch})
	m := newRefQueue(d)
	reissues := map[*item]bool{}
	served := map[*item]bool{}
	var admitted []*item
	live := func(it *item) bool { return !it.cancelled }
	var dst []*item
	nextID := 0

	// take checks one served item against the model's choice and the
	// service properties.
	take := func(got, want *item, op int) error {
		if got != want {
			return fmt.Errorf("op %d: served %v, model %v", op, itemID(got), itemID(want))
		}
		if served[got] {
			return fmt.Errorf("op %d: item %d served twice", op, got.id)
		}
		served[got] = true
		return nil
	}
	// drain pops everything and checks each admitted item was served
	// exactly once since the last Reset.
	drain := func(op int) error {
		for {
			want := m.pop()
			got, ok := q.Pop()
			if !ok {
				if want != nil {
					return fmt.Errorf("op %d: queue empty, model still holds %d", op, want.id)
				}
				break
			}
			if err := take(got, want, op); err != nil {
				return err
			}
		}
		for _, it := range admitted {
			if !served[it] {
				return fmt.Errorf("op %d: item %d admitted but never served", op, it.id)
			}
		}
		admitted = admitted[:0]
		clear(served)
		return nil
	}

	for op, b := range ops {
		switch b % 8 {
		case 0, 1, 2: // push a primary or a reissue on one of 4 connections
			it := &item{id: nextID}
			nextID++
			reissue := b&8 != 0
			conn := int(b>>4) % 4
			reissues[it] = reissue
			admitted = append(admitted, it)
			q.Push(it, reissue, conn)
			m.push(it, reissue, conn)
		case 3, 4: // pop one
			primaries := len(m.fifo)
			want := m.pop()
			got, ok := q.Pop()
			if ok != (want != nil) {
				return wraps, fmt.Errorf("op %d: Pop ok=%v, model has %v", op, ok, itemID(want))
			}
			if ok {
				if (d == PrioFIFO || d == PrioLIFO) && reissues[got] && primaries > 0 {
					return wraps, fmt.Errorf("op %d: reissue %d served while %d primaries wait", op, got.id, primaries)
				}
				if err := take(got, want, op); err != nil {
					return wraps, err
				}
			}
		case 5: // PopBatch
			max := 1 + int(b>>3)%4
			if d == Batch {
				max = queueTestBatch.Size
			}
			dst = q.PopBatch(dst[:0], max, live)
			if len(dst) > max {
				return wraps, fmt.Errorf("op %d: batch of %d exceeds max %d", op, len(dst), max)
			}
			var want []*item
			for len(want) < max {
				x := m.pop()
				if x == nil {
					break
				}
				served[x] = true
				if live(x) {
					want = append(want, x)
				}
			}
			if fmt.Sprint(ids(dst)) != fmt.Sprint(ids(want)) {
				return wraps, fmt.Errorf("op %d: batch %v, model %v", op, ids(dst), ids(want))
			}
		case 6: // cancel the most recent admission (lazy, as callers do)
			if n := len(admitted); n > 0 {
				admitted[n-1].cancelled = true
			}
		case 7:
			if b>>3 == 0 { // Reset, rarely
				q.Reset()
				m.reset()
				admitted = admitted[:0]
				clear(served)
			} else if b>>3 == 1 { // drain everything
				if err := drain(op); err != nil {
					return wraps, err
				}
			}
		}
		if q.Waiting() != m.waiting() {
			return wraps, fmt.Errorf("op %d: Waiting %d, model %d", op, q.Waiting(), m.waiting())
		}
		if r := &q.fifo; r.n > 0 && r.head+r.n > len(r.buf) {
			wraps++
		}
	}
	return wraps, drain(len(ops))
}

func itemID(it *item) any {
	if it == nil {
		return "none"
	}
	return it.id
}

var allDisciplines = []Discipline{FIFO, PrioFIFO, PrioLIFO, RoundRobin, Batch}

// TestQueueMatchesReferenceModel runs long random operation sequences
// under every discipline against the reference model. Phases of 200
// operations alternate at random between push-heavy (queues grow to
// hundreds, so the rings grow) and mixed (queues drain), and the
// churn wraps the rings many times.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for _, d := range allDisciplines {
		t.Run(d.String(), func(t *testing.T) {
			totalWraps := 0
			for seed := uint64(1); seed <= 40; seed++ {
				r := stats.NewRNG(seed)
				ops := make([]byte, 3000)
				pushHeavy := false
				for i := range ops {
					if i%200 == 0 {
						pushHeavy = r.Intn(2) == 0
					}
					b := byte(r.Uint64())
					if pushHeavy && r.Intn(2) == 0 {
						b &^= 7 // a push
					}
					ops[i] = b
				}
				wraps, err := checkQueueOps(d, ops)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				totalWraps += wraps
			}
			if (d == FIFO || d == Batch || d == PrioFIFO || d == PrioLIFO) && totalWraps == 0 {
				t.Fatal("the FIFO ring never wrapped; the sequences do not exercise it")
			}
		})
	}
}

// FuzzQueueOps checks arbitrary operation sequences against the
// reference model. The first byte picks the discipline; the seed
// corpus in testdata/fuzz/FuzzQueueOps covers each discipline, a
// wrapping and a growing ring, cancellation and Reset.
func FuzzQueueOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := allDisciplines[int(data[0])%len(allDisciplines)]
		if _, err := checkQueueOps(d, data[1:]); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	})
}
