package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/net/server"
)

// addLock adds the counter growth from a to b onto t.
func addLock(t, a, b core.LockStats) core.LockStats {
	t.FastPath += b.FastPath - a.FastPath
	t.Slow += b.Slow - a.Slow
	t.Waits += b.Waits - a.Waits
	t.Batches += b.Batches - a.Batches
	t.Stalls += b.Stalls - a.Stalls
	t.WaitNanos += b.WaitNanos - a.WaitNanos
	t.OptimisticHits += b.OptimisticHits - a.OptimisticHits
	t.OptimisticRetries += b.OptimisticRetries - a.OptimisticRetries
	t.OptimisticRefusals += b.OptimisticRefusals - a.OptimisticRefusals
	return t
}

// lockTotals sums LockStats over every live instance of the router.
func lockTotals(o *gossip.Ours) core.LockStats {
	var t core.LockStats
	for _, s := range o.Sems() {
		t = addLock(t, core.LockStats{}, s.Stats())
	}
	return t
}

// netTotals reads the server's frame counters from its telemetry rows.
func netTotals(s *server.Server) map[string]uint64 {
	return s.NetStats()[0].Frames
}

// policyTotals flattens the policy manager's telemetry rows into
// kind.counter keys.
func policyTotals(r *rig) map[string]uint64 {
	out := map[string]uint64{}
	if r.mgr == nil {
		return out
	}
	for _, row := range r.mgr.Stats() {
		for k, v := range row.Counters {
			out[row.Kind+"."+k] = v
		}
	}
	return out
}

func bytesMoved(clients []*client) uint64 {
	var n uint64
	for _, c := range clients {
		n += c.t.reqBytes + c.t.respBytes
	}
	return n
}

func perK(n, ops uint64) float64 { return 1000 * float64(n) / float64(ops) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// putSetupLayers reports the set-up spans as per-layer metrics. The
// first set-up found the plan cache cold; the rest rebuilt the plan
// warm.
func putSetupLayers(spans []setupSpans, m map[string]metric) {
	plan, start, seed, dial := columns(spans)
	m["synth.plan_build_ms"] = metric{plan[0], "ms"}
	m["synth.plan_build_warm_ms"] = metric{median(plan[1:]), "ms"}
	m["net.server.start_ms"] = metric{median(start), "ms"}
	m["net.client.seed_ms"] = metric{median(seed), "ms"}
	m["net.client.dial_ms"] = metric{median(dial), "ms"}
}

// traceRun is the traced run: per-layer metrics from the runtime's
// counters around traced TCP slices and from the ladder replay. It
// fills m and returns the failed checks and the operations the output
// checks show to have failed.
func traceRun(wl *workload, r *rig, clients []*client, d time.Duration, m map[string]metric, out string) ([]string, uint64) {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Every span's times count from this origin, and each carries the
	// traced slice or ladder round it ran in, so that (rung, turn, conn,
	// seq) names one span and the spans of a file can be ordered.
	origin := time.Now()
	tcp, problems := tracedTCP(r, clients, d, origin, put)
	if tcp == nil {
		return problems, 0
	}
	// The output checks cover the TCP phases; the replay below changes
	// the router's state behind the clients' backs.
	checks, missed := checkOutputs(wl, r, clients)
	problems = append(problems, checks...)
	rungs, ladderProblems := ladder(wl, r, tcp, origin, put)
	problems = append(problems, ladderProblems...)
	if err := writeSpans(out, tcp.spans, rungs); err != nil {
		problems = append(problems, "writing spans: "+err.Error())
	} else {
		fmt.Printf("spans written to %s\n", out)
	}
	return problems, missed
}

// tracedTCP alternates untraced and traced TCP slices, d/2 of each, so
// that drift in the host's speed lands on both sides of the
// tracing-overhead comparison. A traced slice records a span per window
// with wait timing on; the runtime's counters are read around it while
// the load is stopped. It returns the traced slices merged, or nil when
// no operation completed.
func tracedTCP(r *rig, clients []*client, d time.Duration, origin time.Time, put func(string, float64, string)) (*phaseStats, []string) {
	o := r.srv.Router()
	var plainRate, tracedRate []float64
	var plainOps, mallocs, gcs uint64
	var plainTime time.Duration
	var lock core.LockStats
	var batches, batched, framesIn, moved uint64
	var sheds, retries, trips uint64
	traced := newPhaseStats(0, 0)
	for i := 0; i < int(d/(2*subWindow)); i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		plain := runPhase(clients, subWindow, subWindow, false)
		runtime.ReadMemStats(&ms1)
		plainRate = append(plainRate, float64(plain.ops)/plain.elapsed.Seconds())
		plainOps += plain.ops
		plainTime += plain.elapsed
		mallocs += ms1.Mallocs - ms0.Mallocs
		gcs += uint64(ms1.NumGC - ms0.NumGC)

		core.SetWaitTiming(true)
		lock0, net0, pol0, bytes0 := lockTotals(o), netTotals(r.srv), policyTotals(r), bytesMoved(clients)
		ph := runPhase(clients, subWindow, subWindow, true)
		lock1, net1, pol1, bytes1 := lockTotals(o), netTotals(r.srv), policyTotals(r), bytesMoved(clients)
		core.SetWaitTiming(false)
		tracedRate = append(tracedRate, float64(ph.ops)/ph.elapsed.Seconds())
		traced.ops += ph.ops
		traced.windows += ph.windows
		traced.winNanos += ph.winNanos
		if len(traced.spans) < 4*maxSpans {
			shift := int64(ph.opened.Sub(origin))
			for _, sp := range ph.spans {
				sp.turn, sp.start, sp.end = uint16(i), sp.start+shift, sp.end+shift
				traced.spans = append(traced.spans, sp)
			}
		}
		lock = addLock(lock, lock0, lock1)
		batches += net1["batches"] - net0["batches"]
		batched += net1["batched_frames"] - net0["batched_frames"]
		framesIn += net1["in.total"] - net0["in.total"]
		moved += bytes1 - bytes0
		sheds += pol1["gate.shed"] - pol0["gate.shed"] + pol1["breaker.rejected"] - pol0["breaker.rejected"]
		retries += pol1["policy.retries"] - pol0["policy.retries"]
		trips += pol1["breaker.tripped"] - pol0["breaker.tripped"]
	}
	ops := traced.ops
	if ops == 0 || plainOps == 0 {
		return nil, []string{"a TCP slice completed no operation"}
	}
	put("runtime.mallocs_per_op", float64(mallocs)/float64(plainOps), "allocs/op")
	put("runtime.gc_per_s", float64(gcs)/plainTime.Seconds(), "1/s")
	put("trace.overhead_frac", 1-median(tracedRate)/median(plainRate), "ratio")

	hits, optRetries, refusals := lock.OptimisticHits, lock.OptimisticRetries, lock.OptimisticRefusals
	put("core.fast_path_ratio", ratio(lock.FastPath, lock.FastPath+lock.Slow), "ratio")
	put("core.slow_per_kop", perK(lock.Slow, ops), "count/kop")
	put("core.waits_per_kop", perK(lock.Waits, ops), "count/kop")
	put("core.wait_us_per_op", float64(lock.WaitNanos)/1e3/float64(ops), "us")
	put("core.stalls_per_kop", perK(lock.Stalls, ops), "count/kop")
	put("core.batches_per_op", ratio(lock.Batches, ops), "count/op")
	put("core.opt_hit_ratio", ratio(hits, hits+optRetries+refusals), "ratio")
	put("core.opt_retries_per_kop", perK(optRetries, ops), "count/kop")
	put("core.opt_refusals_per_kop", perK(refusals, ops), "count/kop")

	put("net.server.frames_per_batch", ratio(batched, batches), "frames")
	put("net.server.fused_share", ratio(batched, framesIn), "ratio")
	put("net.wire.bytes_per_op", ratio(moved, ops), "B/op")
	put("net.client.window_us", traced.windowUs(), "us")

	put("resilience.sheds_per_kop", perK(sheds, ops), "count/kop")
	put("resilience.retries_per_kop", perK(retries, ops), "count/kop")
	put("resilience.breaker_trips", float64(trips), "count")

	fmt.Printf("tcp: untraced %.0f ops/s, traced %.0f ops/s (medians over %d slices each), mean window %.1f us over %d windows\n",
		median(plainRate), median(tracedRate), len(plainRate), traced.windowUs(), traced.windows)
	return traced, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
