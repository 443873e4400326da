package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/net/server"
	"repro/internal/net/wire"
	"repro/internal/resilience"
)

// sendCost is gossipd's default synthetic per-delivered-frame sink cost.
const sendCost = 60

// rig is one served router plus the benchmark's connections to it.
type rig struct {
	srv    *server.Server
	policy *resilience.Policy
	mgr    *resilience.Manager
	served chan error
	conns  []net.Conn
}

// setupSpans splits set-up into consecutive spans; they add up to the
// set-up time by construction.
type setupSpans struct {
	plan, start, seed, dial time.Duration
}

func (s setupSpans) total() time.Duration { return s.plan + s.start + s.seed + s.dial }

// columns returns each span of every set-up in milliseconds.
func columns(spans []setupSpans) (plan, start, seed, dial []float64) {
	for _, s := range spans {
		plan, start = append(plan, ms(s.plan)), append(start, ms(s.start))
		seed, dial = append(seed, ms(s.seed)), append(dial, ms(s.dial))
	}
	return plan, start, seed, dial
}

// newPolicy is gossipd's -resilience policy with its default flags
// (-patience 500us -retries 2 -hedge-budget 200us), as served by
// gossipd -listen.
func newPolicy() *resilience.Policy {
	return resilience.New("perfbench", resilience.Config{
		Patience:    500 * time.Microsecond,
		Retries:     2,
		Backoff:     resilience.Backoff{Base: 50 * time.Microsecond, Max: time.Millisecond},
		HedgeBudget: 200 * time.Microsecond,
		Budget:      &resilience.BudgetConfig{Capacity: 10000, RefillPerSec: 1e5},
		Breaker:     &resilience.BreakerConfig{TripStallRate: 1000, Cooldown: time.Millisecond, Probes: 3},
		Gate:        &resilience.GateConfig{MaxConcurrent: 64, QueueDepth: 256, QueueTimeout: time.Millisecond, PressureOn: 16, PressureOff: 4},
	})
}

// setUp goes from nothing to a ready server with conns dialled
// connections: plan synthesis, server start, membership seeding over
// the wire, dialling. The first call in a process finds the plan cache
// cold and fills it; later calls synthesize the same plan again through
// plan.Build, so every set-up pays synthesis once.
func setUp(wl *workload, conns int, cold bool) (*rig, setupSpans, error) {
	var sp setupSpans
	t0 := time.Now()
	if cold {
		gossip.BuildPlan(plan.Options{})
	} else if _, err := plan.Build(gossip.Sections(), adtspecs.All(), gossip.ClassOf, plan.Options{}); err != nil {
		return nil, sp, fmt.Errorf("plan build: %w", err)
	}
	t1 := time.Now()
	r := &rig{served: make(chan error, 1)}
	cfg := server.Config{Addr: "127.0.0.1:0", SendCost: sendCost}
	if wl.resilient {
		r.policy = newPolicy()
		r.mgr = resilience.NewManager(nil, time.Millisecond)
		r.mgr.Add(r.policy)
		r.mgr.Start()
		cfg.Policy = r.policy
	}
	srv, err := server.New(cfg)
	if err != nil {
		if r.mgr != nil {
			r.mgr.Stop()
		}
		return nil, sp, fmt.Errorf("server: %w", err)
	}
	r.srv = srv
	go func() { r.served <- srv.Serve() }()
	t2 := time.Now()
	addr := srv.Addr().String()
	if err := seed(addr, wl.stable); err != nil {
		r.tearDown(0)
		return nil, sp, err
	}
	t3 := time.Now()
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			r.tearDown(0)
			return nil, sp, fmt.Errorf("dial: %w", err)
		}
		r.conns = append(r.conns, nc)
	}
	t4 := time.Now()
	sp = setupSpans{plan: t1.Sub(t0), start: t2.Sub(t1), seed: t3.Sub(t2), dial: t4.Sub(t3)}
	return r, sp, nil
}

// seed registers the stable membership over one connection, a window of
// frames per write, and checks every acknowledgement.
func seed(addr string, members []member) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("seed dial: %w", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var out, buf []byte
	for i := 0; i < len(members); i += winSize {
		batch := members[i:min(i+winSize, len(members))]
		out = out[:0]
		for _, m := range batch {
			if out, err = wire.AppendRegister(out, m.group, m.name); err != nil {
				return fmt.Errorf("seed encode: %w", err)
			}
		}
		if _, err := nc.Write(out); err != nil {
			return fmt.Errorf("seed write: %w", err)
		}
		for range batch {
			var body []byte
			if body, buf, err = wire.ReadFrame(br, buf, 0); err != nil {
				return fmt.Errorf("seed read: %w", err)
			}
			if resp, err := wire.ParseResp(body); err != nil || resp.Kind != wire.KindOK {
				return fmt.Errorf("seed register refused: %v %v", resp, err)
			}
		}
	}
	return nil
}

// tearDown closes the connections, drains the server, stops the policy
// manager, and audits what the shutdown left behind: no active
// connection, no held lock, no parked waiter beyond waiters0.
func (r *rig) tearDown(waiters0 int64) error {
	for _, c := range r.conns {
		c.Close()
	}
	var errs []error
	if err := r.srv.Shutdown(5 * time.Second); err != nil {
		errs = append(errs, err)
	}
	if err := <-r.served; err != nil {
		errs = append(errs, fmt.Errorf("serve: %w", err))
	}
	if r.mgr != nil {
		r.mgr.Stop()
	}
	if n := r.srv.ActiveConns(); n != 0 {
		errs = append(errs, fmt.Errorf("%d active connections after shutdown", n))
	}
	var held int64
	for _, s := range r.srv.Router().Sems() {
		held += s.OutstandingHolds()
	}
	if held != 0 {
		errs = append(errs, fmt.Errorf("%d lock holds outstanding after shutdown", held))
	}
	if n := core.WaitersOutstanding() - waiters0; n != 0 {
		errs = append(errs, fmt.Errorf("%d waiters outstanding after shutdown", n))
	}
	return errors.Join(errs...)
}
