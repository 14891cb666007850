package cluster

import (
	"fmt"

	"repro/reissue/hedge/fault"
)

// FaultPlan mirrors the live fault injector (reissue/hedge/fault) in
// the simulator: the SAME fault.Profile script, consulted through the
// same pure fault.Decide function on the same (query, copy-ordinal,
// server) keys, so both worlds fail exactly the same copies. Crash
// and error-rate copies fail at dispatch and never occupy a server
// (the live injector fails them before the backend sees them); a
// stalled copy is dropped at dispatch and never completes (live it
// hangs until its context dies); a slow copy's completion report is
// deferred by (Factor-1)x its response — an edge-latency stretch that
// leaves server capacity untouched, matching the injector holding a
// completed copy.
//
// The breaker mirror re-implements hedge.Breaker's transitions on
// virtual time: BreakerThreshold consecutive failures open a server,
// BreakerCooldown model-ms later probes are admitted, a probe's
// outcome closes or re-opens it, and copies intended for an open
// server re-route to the next server in mod-R order (the routing
// seam) — failing fast when every server is open. Failures report at
// dispatch time and successes at completion time, the same
// event-order discipline the live injector follows.
type FaultPlan struct {
	// Profiles is the fault script, shared verbatim with the live
	// injector.
	Profiles []fault.Profile
	// BreakerThreshold is the consecutive-failure trip count; 0
	// disables the breaker mirror.
	BreakerThreshold int
	// BreakerCooldown is the open window in model milliseconds
	// (hedge.BreakerConfig.Cooldown / Unit on the live side).
	BreakerCooldown float64
}

// Validate checks the plan against a fleet of the given size.
func (fp *FaultPlan) Validate(servers int) error {
	if servers <= 0 {
		return fmt.Errorf("cluster: Faults requires finite Servers, got %d", servers)
	}
	if err := fault.Validate(fp.Profiles, servers); err != nil {
		return err
	}
	if fp.BreakerThreshold < 0 {
		return fmt.Errorf("cluster: negative BreakerThreshold %d", fp.BreakerThreshold)
	}
	if fp.BreakerThreshold > 0 && fp.BreakerCooldown <= 0 {
		return fmt.Errorf("cluster: BreakerThreshold %d needs positive BreakerCooldown, got %g",
			fp.BreakerThreshold, fp.BreakerCooldown)
	}
	return nil
}

// chaosServer is one server's breaker-mirror state; the transitions
// are hedge.Breaker's, with float64 model time in place of
// time.Time.
type chaosServer struct {
	consec    int
	open      bool
	openUntil float64
	trips     int
}

// chaosState is the pooled per-run chaos machinery.
type chaosState struct {
	plan    *FaultPlan
	servers []chaosServer

	failed   int // copies failed at dispatch (Crash, Flap, ErrorRate)
	stalled  int // copies dropped into a stall
	rerouted int // copies steered off an open server
	rejected int // copies failed fast with every server open
}

func (cs *chaosState) reset(plan *FaultPlan, n int) {
	cs.plan = plan
	if cap(cs.servers) < n {
		cs.servers = make([]chaosServer, n)
	} else {
		cs.servers = cs.servers[:n]
	}
	for i := range cs.servers {
		cs.servers[i] = chaosServer{}
	}
	cs.failed, cs.stalled, cs.rerouted, cs.rejected = 0, 0, 0, 0
}

// route mirrors hedge.Breaker.Route: the first server in intended,
// intended+1, ... mod R order that is closed or due a half-open
// probe. ok=false means every server is open and cooling down.
func (cs *chaosState) route(intended int, now float64) (int, bool) {
	if cs.plan.BreakerThreshold <= 0 {
		return intended, true
	}
	n := len(cs.servers)
	for k := 0; k < n; k++ {
		i := (intended + k) % n
		st := &cs.servers[i]
		if !st.open || now >= st.openUntil {
			return i, true
		}
	}
	return intended, false
}

// report mirrors hedge.Breaker.Report on virtual time.
func (cs *chaosState) report(server int, ok bool, now float64) {
	if cs.plan.BreakerThreshold <= 0 {
		return
	}
	st := &cs.servers[server]
	if ok {
		if st.open {
			if now >= st.openUntil {
				st.open = false
				st.consec = 0
			}
			return
		}
		st.consec = 0
		return
	}
	if st.open {
		if now >= st.openUntil {
			st.openUntil = now + cs.plan.BreakerCooldown
		}
		return
	}
	st.consec++
	if st.consec >= cs.plan.BreakerThreshold {
		st.open = true
		st.openUntil = now + cs.plan.BreakerCooldown
		st.trips++
		st.consec = 0
	}
}

// copyOrdinal is the copy's fault-stream key: 0 for the primary, the
// reissue ordinal otherwise. For single-delay policies this equals
// the live attempt slot, which is what keeps the two worlds' ErrorRate
// coins aligned; the chaos agreement tests run single-delay anchors.
func copyOrdinal(r *request) int {
	if r.reissue {
		return r.q.reissues
	}
	return 0
}
