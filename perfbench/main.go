// Command perfbench is the repository's end-to-end benchmark: it serves
// the gossip router's TCP front end (internal/net/server) on loopback
// from inside its own process and drives it with a closed loop of
// windowed requests from its own wire client.
//
//	perfbench --workload lookup-window --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// adds a traced pass and a replay of the same seeded windows down a
// ladder of entry points (socket → server.Exerciser → gossip router →
// wire codec) and prints the per-layer metrics. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/net/wire"
)

// setupReps is how many times a run sets up from scratch, half before
// the measured phase and half after it; setup_s is the fastest. The
// host's speed drifts in phases that last seconds and every set-up does
// the same work, so the fastest of set-ups spread over the run is its
// steadiest reading: over 18 runs its IQR/median was 0.09, that of the
// median 0.20.
const setupReps = 40

// warmup runs before any measured phase: TCP, intern tables, optimistic
// gates and the heap settle here.
const warmup = time.Second

// subWindow is the length of the sub-windows a phase is cut into;
// throughput and latency are trimmed means over them.
const subWindow = 500 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seedArg := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seedArg, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, measure time.Duration, traced bool) error {
	if measure < 2*subWindow {
		return fmt.Errorf("--seconds must be at least %v", 2*subWindow)
	}
	waiters0 := core.WaitersOutstanding()
	wl, err := generate(name, seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: %s\n", wl.name, seed, wl.why)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, traffic over loopback TCP\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	// Set up from scratch, each time from a collected heap as a fresh
	// process would; the last rig of the first half serves the run.
	var r *rig
	spans := make([]setupSpans, setupReps)
	setUpAt := func(i int) (err error) {
		runtime.GC()
		r, spans[i], err = setUp(wl, len(wl.streams), i == 0)
		return err
	}
	for i := 0; i < setupReps/2; i++ {
		if err := setUpAt(i); err != nil {
			return err
		}
		if i < setupReps/2-1 {
			if err := r.tearDown(waiters0); err != nil {
				return fmt.Errorf("set-up rep %d: %w", i, err)
			}
		}
	}
	runtime.GC()

	clients := make([]*client, len(r.conns))
	for i, nc := range r.conns {
		clients[i] = newClient(nc, wl, wl.streams[i])
	}
	runPhase(clients, warmup, warmup, false)

	res := result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	var missed uint64
	if traced {
		traceOut := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", wl.name, seed))
		problems, missed = traceRun(wl, r, clients, measure, res.Metrics, traceOut)
	} else {
		problems = measureRun(clients, measure, res.Metrics)
		checks, n := checkOutputs(wl, r, clients)
		problems, missed = append(problems, checks...), n
	}
	if err := r.tearDown(waiters0); err != nil {
		problems = append(problems, "shutdown audit: "+err.Error())
	}
	for i := setupReps / 2; i < setupReps; i++ {
		if err := setUpAt(i); err != nil {
			return err
		}
		if err := r.tearDown(waiters0); err != nil {
			problems = append(problems, fmt.Sprintf("set-up rep %d: %v", i, err))
			break
		}
	}
	if traced {
		putSetupLayers(spans, res.Metrics)
	} else if _, measured := res.Metrics["ops_per_s"]; measured {
		putSetup(spans, res.Metrics)
	}
	res.Failed = missed
	for _, c := range clients {
		res.Attempted += c.t.attempted
		res.Failed += c.t.failed
	}
	if _, measured := res.Metrics["ops_per_s"]; measured {
		res.Metrics["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
		res.Correct = false
	}
	for _, c := range clients {
		for code, n := range c.t.refusals {
			if n != 0 {
				fmt.Printf("refused by the server: %d x %s\n", n, wire.CodeString(byte(code)))
			}
		}
	}
	if res.Correct {
		fmt.Printf("checks: all passed over %d operations (%d failed)\n", res.Attempted, res.Failed)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// rusageCPU returns the process's user+system CPU time.
func rusageCPU() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss // KiB on Linux
}

// putSetup reports setup_s: the fastest set-up, with its spans.
func putSetup(spans []setupSpans, m map[string]metric) {
	best := spans[0]
	for _, s := range spans[1:] {
		if s.total() < best.total() {
			best = s
		}
	}
	m["setup_s"] = metric{best.total().Seconds(), "s"}
	totals := make([]float64, len(spans))
	for i, s := range spans {
		totals[i] = ms(s.total())
	}
	fmt.Printf("set-up, fastest of %d: %.1f ms = plan build %.1f + server start %.2f + seed %.1f + dial %.2f (median %.1f ms)\n",
		len(spans), ms(best.total()), ms(best.plan), ms(best.start), ms(best.seed), ms(best.dial), median(totals))
}

// measureRun is the untraced run: one closed-loop phase, measured from
// outside, giving the end-to-end metrics.
func measureRun(clients []*client, d time.Duration, m map[string]metric) []string {
	cpu0, _ := rusageCPU()
	ph := runPhase(clients, d, subWindow, false)
	cpu1, maxrss := rusageCPU()
	var problems []string
	if ph.ops == 0 {
		return append(problems, "no operation completed")
	}

	subRate, subP50, subP99 := subStats(ph)
	if len(subRate) == 0 {
		return append(problems, "no complete sub-window")
	}
	rate, p50, p99 := trimmedMean(subRate), trimmedMean(subP50), trimmedMean(subP99)
	m["ops_per_s"] = metric{rate, "1/s"}
	m["p50_us"] = metric{p50, "us"}
	m["p99_us"] = metric{p99, "us"}
	m["cpu_us_per_op"] = metric{float64(cpu1-cpu0) / float64(time.Microsecond) / float64(ph.ops), "us"}
	m["rss_mib"] = metric{float64(maxrss) / 1024, "MiB"}

	fmt.Printf("measured %v: %d ops in %d windows; trimmed means over %d sub-windows of %v: %.0f ops/s, p50 %.1f us, p99 %.1f us (%d latency samples per sub-window, %d above p99)\n",
		ph.elapsed.Round(time.Millisecond), ph.ops, ph.windows, len(subRate), subWindow,
		rate, p50, p99, ph.ops/uint64(len(subRate)), ph.ops/uint64(len(subRate))/100)
	return problems
}

// subStats returns per-sub-window throughput and latency quantiles for
// every complete sub-window of a phase.
func subStats(ph *phaseStats) (rate, p50, p99 []float64) {
	for k := range ph.subOps {
		if time.Duration(k+1)*subWindow > ph.elapsed || ph.subHist[k].Count() == 0 {
			break
		}
		rate = append(rate, float64(ph.subOps[k])/subWindow.Seconds())
		p50 = append(p50, ph.subHist[k].Quantile(0.5)/1e3)
		p99 = append(p99, ph.subHist[k].Quantile(0.99)/1e3)
	}
	return rate, p50, p99
}

// trimmedMean is the mean of xs without its lowest and highest tenth.
// The host's loopback path drifts between faster and slower phases that
// last seconds; over a run's sub-windows a median can jump from one
// phase to the other, where this follows the share of each smoothly and
// still ignores a stray stalled sub-window.
func trimmedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// checkOutputs compares what the server holds with what the clients were
// told: every acknowledged unicast reached its member's sink and nothing
// else did, and each churned member is present exactly when its last
// acknowledged operation was a register. It returns the failed checks
// and the number of operations they show to have failed: each frame a
// sink is short of or over its acknowledged unicasts, and each churned
// member in the wrong state.
func checkOutputs(wl *workload, r *rig, clients []*client) ([]string, uint64) {
	var problems []string
	var missed uint64
	report := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for i, c := range clients {
		if c.t.err != nil {
			problems = append(problems, fmt.Sprintf("connection %d: %v", i, c.t.err))
		}
		if c.t.wrong != 0 {
			problems = append(problems, fmt.Sprintf("connection %d: %d wrong answers", i, c.t.wrong))
		}
	}
	var acked, delivered uint64
	for i, m := range wl.stable {
		var want uint64
		for _, c := range clients {
			want += c.t.acks[i]
		}
		var got uint64
		if s := r.srv.Sink(m.group, m.name); s != nil {
			got = uint64(s.Frames.Load())
		}
		acked += want
		delivered += got
		if got != want {
			missed += max(got, want) - min(got, want)
			report("sink %s/%s: %d frames delivered, %d unicasts acknowledged", m.group, m.name, got, want)
		}
	}
	// Only connection 0 churns, so its acknowledgements order the
	// transient members' history.
	for i, m := range wl.transient {
		if s := r.srv.Sink(m.group, m.name); s != nil && s.Frames.Load() != 0 {
			missed += uint64(s.Frames.Load())
			report("sink %s/%s: %d frames delivered to a member no unicast targeted", m.group, m.name, s.Frames.Load())
		}
		want := clients[0].t.last[i] == wire.KindRegister
		if got := r.srv.Router().Lookup(m.group, m.name); got != want {
			missed++
			report("member %s/%s: present=%v, last acknowledged op says %v", m.group, m.name, got, want)
		}
	}
	fmt.Printf("output checks: %d unicasts acknowledged, %d frames delivered, %d churned members audited\n",
		acked, delivered, len(wl.transient))
	return problems, missed
}
