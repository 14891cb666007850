package cluster

import (
	"math"
	"reflect"
	"sync"

	"repro/reissue"
)

// DrawTable shares common-random-numbers workload draws among the
// Clusters attached to it with ShareDraws. The first run of a
// shareable configuration stores its draw (arrival instants, service
// times, connections); the first run of any other attached Cluster
// whose draw key is equal copies that draw instead of sampling it
// again, then replays it as a Cluster replays its own draw. The draw
// key is everything the draw depends on: the DistSource value, Seed,
// ServiceSeed, Queries+Warmup, ArrivalRate, FanOut, Connections and
// whether Servers is finite. Nothing is shared under FreshPerRun,
// ArrivalTimes or RateMultiplier, or for a Dist whose value is not
// comparable. Results are bit-identical either way.
//
// A sweep pass owns one table (sweep.Env.Warm attaches it), so the
// table holds one draw per distinct workload of the pass. The zero
// value is ready to use; a DrawTable is safe for concurrent use.
type DrawTable struct {
	mu    sync.Mutex
	draws map[drawKey][]draw
}

// drawKey identifies a workload draw: every Config input the draw
// loop of RunDetailed reads.
type drawKey struct {
	src               DistSource
	seed, serviceSeed uint64
	total, fan, conns int
	rate              float64
	finite            bool
}

// drawKeyOf returns cfg's draw key, or false when its draw must not
// be shared.
func drawKeyOf(cfg *Config) (drawKey, bool) {
	src, ok := cfg.Source.(DistSource)
	if !ok || cfg.FreshPerRun || cfg.ArrivalTimes != nil || cfg.RateMultiplier != nil ||
		!reflect.ValueOf(src.Dist).Comparable() {
		return drawKey{}, false
	}
	return drawKey{
		src:         src,
		seed:        cfg.Seed,
		serviceSeed: cfg.ServiceSeed,
		total:       cfg.Queries + cfg.Warmup,
		fan:         cfg.FanOut,
		conns:       cfg.Connections,
		rate:        cfg.ArrivalRate,
		finite:      cfg.Servers > 0,
	}, true
}

// load returns the stored draw for k, or nil.
func (t *DrawTable) load(k drawKey) []draw {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draws[k]
}

// store keeps a copy of the draw in qs under k, unless another
// Cluster stored one first (it is the same draw).
func (t *DrawTable) store(k drawKey, qs []query) {
	d := make([]draw, len(qs))
	for i := range qs {
		d[i] = qs[i].draw
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.draws[k]; ok {
		return
	}
	if t.draws == nil {
		t.draws = make(map[drawKey][]draw)
	}
	t.draws[k] = d
}

// ShareDraws attaches t to c: c's runs read and fill t as DrawTable
// describes. A nil t detaches.
func (c *Cluster) ShareDraws(t *DrawTable) { c.draws = t }

// recallRuns is how many of its most recent simulated runs a Cluster
// remembers for RunDetailed to return again.
const recallRuns = 4

// recalled is one remembered run: the policy and its result.
type recalled struct {
	policy reflect.Value
	res    *Result
}

// recallable reports whether cfg makes a run a pure function of the
// policy alone, so that a repeated policy may return the remembered
// Result: a stateless DistSource under common random numbers, no
// caller callback, no chaos or interference (whose pointers the
// caller may edit between runs), no per-server or per-query slices
// the caller owns, and a load balancer that is a plain value.
func recallable(cfg *Config) bool {
	_, dist := cfg.Source.(DistSource)
	return dist && !cfg.FreshPerRun && cfg.OnRequestComplete == nil &&
		cfg.Interference == nil && cfg.Faults == nil && cfg.SpeedFactors == nil &&
		cfg.ArrivalTimes == nil && cfg.RateMultiplier == nil &&
		plainType(reflect.TypeOf(cfg.LB))
}

// recall returns the remembered result of a run under a policy with
// the same type and bits as pv, or nil.
func (c *Cluster) recall(pv reflect.Value) *Result {
	for _, r := range c.recent {
		if r.res != nil && r.policy.Type() == pv.Type() && sameBits(r.policy, pv) {
			return r.res
		}
	}
	return nil
}

// remember keeps res as the result of policy pv, forgetting the
// oldest remembered run.
func (c *Cluster) remember(pv reflect.Value, res *Result) {
	c.recent[c.nextRecall] = recalled{policy: pv, res: res}
	c.nextRecall = (c.nextRecall + 1) % recallRuns
}

// plainType reports whether values of t are built only from
// booleans, numbers, strings, arrays and structs: values that hold
// no reference to state that could change between two runs, and
// that sameBits can compare. A nil type is not plain.
func plainType(t reflect.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return plainType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !plainType(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// sameBits reports whether two values of one plain type are equal
// bit for bit. Floats compare by their bits, so -0 and +0 differ (a
// run records the delay it was given) and a NaN equals itself.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex64, reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return false
}

// recallablePolicy returns p's reflected value and whether a run
// under it may be remembered and recalled: p must be a plain value
// (no pointer, slice, map, func or interface inside), so two
// policies with equal bits sample identical plans. A MultipleR
// (slice of delays) or a stateful online adapter (pointer) always
// re-simulates.
func recallablePolicy(p reissue.Policy) (reflect.Value, bool) {
	pv := reflect.ValueOf(p)
	return pv, pv.IsValid() && plainType(pv.Type())
}
