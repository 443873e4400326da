package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/net/server"
	"repro/internal/net/wire"
)

// The traced run measures each layer by replaying the run's own seeded
// windows through a ladder of public entry points, one rung per layer,
// each rung driven by the same two closed-loop workers as the TCP run:
//
//	client.window   a window's round trip over loopback TCP
//	server.handle   server.Exerciser.HandleBatch on the window's bodies
//	gossip.router   the router calls HandleBatch makes (gossip.Resilient
//	                under the resilience policy, gossip.Ours otherwise)
//	gossip.bare     the same calls on bare gossip.Ours (resilient runs)
//	wire.parse      wire.ParseReq on each body
//	wire.append     wire.Append* for each response
//
// A layer's self time is its rung minus the rungs below it; the socket
// and connection goroutines' share of a window is client.window minus
// server.handle.
type rung uint8

const (
	rungWindow rung = iota
	rungHandle
	rungRouter
	rungBare
	rungParse
	rungAppend
	numRungs
)

var rungNames = [numRungs]string{"client.window", "server.handle", "gossip.router", "gossip.bare", "wire.parse", "wire.append"}

// rungParent is the rung each rung's span nests in.
var rungParent = [numRungs]rung{rungWindow, rungWindow, rungHandle, rungRouter, rungHandle, rungHandle}

// The rungs take turns, ladderRounds times, each running rungSlice per
// turn, so that drift in the host's speed spreads over all of them.
const (
	ladderRounds = 5
	rungSlice    = 100 * time.Millisecond
)

// maxRungSpans caps the spans one worker keeps per rung.
const maxRungSpans = 1 << 12

type ladderSpan struct {
	rung       rung
	turn       uint16 // the ladder round
	conn       uint8
	seq        uint64 // window sequence number within the rung's turn
	ring       uint32 // the window's ring position, as in the TCP spans
	start, end int64  // ns since the traced run's origin
}

// call is one router entry the server makes for a window: a single
// request, or a fused run of adjacent unicasts.
type call struct {
	kind    wire.Kind
	g, m    core.Value
	payload []byte
	sink    *gossip.Conn
	expect  int8
	run     []gossip.SendReq // fused unicast run (len ≥ 2)
}

// Per-kind router accumulators.
const (
	slotLookup = iota
	slotUnicast
	slotBatch
	slotRegister
	slotUnregister
	numSlots
)

func (c *call) slot() int {
	switch {
	case c.run != nil:
		return slotBatch
	case c.kind == wire.KindLookup:
		return slotLookup
	case c.kind == wire.KindUnicast:
		return slotUnicast
	case c.kind == wire.KindRegister:
		return slotRegister
	}
	return slotUnregister
}

// frames is how many requests the call answers.
func (c *call) frames() int { return max(1, len(c.run)) }

// replayWindow is one window prepared for the rungs below the socket.
type replayWindow struct {
	w     *window
	calls []call
	resp  []wire.Resp // the answers a correct server gives, for wire.append
}

// prepare splits each window into the router calls the server makes for
// it: a run of two or more adjacent unicasts fuses into one
// UnicastBatchV, everything else is one call. Names are boxed once, as
// the server's per-connection intern table does.
func prepare(wl *workload, r *rig) ([][]replayWindow, error) {
	boxed := map[string]core.Value{}
	box := func(b []byte) core.Value {
		v, ok := boxed[string(b)]
		if !ok {
			v = core.Value(string(b))
			boxed[string(b)] = v
		}
		return v
	}
	out := make([][]replayWindow, len(wl.streams))
	for s, stream := range wl.streams {
		for i := range stream {
			w := &stream[i]
			rw := replayWindow{w: w}
			reqs := make([]wire.Req, len(w.bodies))
			for j, b := range w.bodies {
				req, err := wire.ParseReq(b)
				if err != nil {
					return nil, fmt.Errorf("replay parse: %w", err)
				}
				reqs[j] = req
				resp := wire.Resp{Kind: wire.KindOK}
				if req.Kind == wire.KindLookup {
					resp = wire.Resp{Kind: wire.KindBool, Bool: w.ops[j].expect == expectTrue}
				}
				rw.resp = append(rw.resp, resp)
			}
			for j := 0; j < len(reqs); {
				k := j
				for k < len(reqs) && reqs[k].Kind == wire.KindUnicast {
					k++
				}
				if k-j >= 2 {
					var run []gossip.SendReq
					for _, q := range reqs[j:k] {
						run = append(run, gossip.SendReq{Group: box(q.Group), Dst: box(q.A), Payload: q.Payload})
					}
					rw.calls = append(rw.calls, call{kind: wire.KindUnicast, run: run})
					j = k
					continue
				}
				q := reqs[j]
				c := call{kind: q.Kind, g: box(q.Group), m: box(q.A), payload: q.Payload, expect: w.ops[j].expect}
				if q.Kind == wire.KindRegister {
					if c.sink = r.srv.Sink(string(q.Group), string(q.A)); c.sink == nil {
						c.sink = gossip.NewConn(string(q.A), sendCost)
					}
				}
				rw.calls = append(rw.calls, c)
				j++
			}
			out[s] = append(out[s], rw)
		}
	}
	return out, nil
}

// exec runs one call on the router: through rs when it is non-nil (the
// policied path), on o otherwise. It reports a refusal or a wrong
// lookup answer.
func (c *call) exec(o *gossip.Ours, rs *gossip.Resilient, sc *gossip.BatchScratch) (refused, wrong bool) {
	var err error
	found := false
	switch {
	case c.run != nil && rs != nil:
		err = rs.UnicastBatchErrV(c.run, sc)
	case c.run != nil:
		o.UnicastBatchV(c.run, sc)
	case c.kind == wire.KindLookup && rs != nil:
		found, err = rs.LookupErrV(c.g, c.m)
	case c.kind == wire.KindLookup:
		found = o.LookupV(c.g, c.m)
	case c.kind == wire.KindUnicast && rs != nil:
		err = rs.UnicastErrV(c.g, c.m, c.payload)
	case c.kind == wire.KindUnicast:
		o.UnicastV(c.g, c.m, c.payload)
	case c.kind == wire.KindRegister && rs != nil:
		err = rs.RegisterErrV(c.g, c.m, c.sink)
	case c.kind == wire.KindRegister:
		o.RegisterV(c.g, c.m, c.sink)
	case rs != nil:
		err = rs.UnregisterErrV(c.g, c.m)
	default:
		o.UnregisterV(c.g, c.m)
	}
	if err != nil {
		return true, false
	}
	if c.kind == wire.KindLookup && (c.expect == expectTrue || c.expect == expectFalse) {
		return false, found != (c.expect == expectTrue)
	}
	return false, false
}

// rungStats is what one rung's workers measured.
type rungStats struct {
	rung            rung
	windows, frames uint64
	nanos           int64 // summed window time, clock cost removed
	slotNanos       [numSlots]int64
	slotFrames      [numSlots]uint64
	refused, wrong  uint64
	spans           []ladderSpan
}

func (a *rungStats) merge(b *rungStats) {
	a.windows += b.windows
	a.frames += b.frames
	a.nanos += b.nanos
	for i := range a.slotNanos {
		a.slotNanos[i] += b.slotNanos[i]
		a.slotFrames[i] += b.slotFrames[i]
	}
	a.refused += b.refused
	a.wrong += b.wrong
	a.spans = append(a.spans, b.spans[:min(len(b.spans), maxRungSpans-len(a.spans))]...)
}

// nsPerFrame is the rung's mean time per request frame.
func (a *rungStats) nsPerFrame() float64 {
	if a.frames == 0 {
		return 0
	}
	return float64(a.nanos) / float64(a.frames)
}

// callNsPerFrame is the router rung's summed per-call time per frame.
func (a *rungStats) callNsPerFrame() float64 {
	if a.frames == 0 {
		return 0
	}
	var n int64
	for _, v := range a.slotNanos {
		n += v
	}
	return float64(n) / float64(a.frames)
}

// slotNs is the mean router time per frame of one call kind.
func (a *rungStats) slotNs(s int) float64 {
	if a.slotFrames[s] == 0 {
		return 0
	}
	return float64(a.slotNanos[s]) / float64(a.slotFrames[s])
}

// stepFunc processes one window on a rung and adds its per-call detail
// to st.
type stepFunc func(worker int, rw *replayWindow, st *rungStats)

// replay drives one turn of a rung: a worker per stream, each running
// step on consecutive windows of its ring, back to back, for rungSlice.
// replay times each step, removing the cost of the clock reads it made,
// and then runs check, when there is one, outside the timed span.
func replay(rg rung, turn uint16, origin time.Time, streams [][]replayWindow, clock float64, step, check stepFunc) *rungStats {
	per := make([]*rungStats, len(streams))
	var wg sync.WaitGroup
	var start time.Time
	open := make(chan struct{})
	for i := range streams {
		per[i] = &rungStats{spans: make([]ladderSpan, 0, maxRungSpans)}
		wg.Add(1)
		go func(i int, st *rungStats) {
			defer wg.Done()
			<-open
			deadline := start.Add(rungSlice)
			ring := streams[i]
			for n := 0; ; n++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				pos := n % len(ring)
				rw := &ring[pos]
				step(i, rw, st)
				t1 := time.Now()
				st.windows++
				st.frames += uint64(len(rw.w.bodies))
				st.nanos += int64(float64(t1.Sub(t0)) - clock)
				if len(st.spans) < cap(st.spans) {
					st.spans = append(st.spans, ladderSpan{rung: rg, turn: turn, conn: uint8(i), seq: st.windows, ring: uint32(pos),
						start: int64(t0.Sub(origin)), end: int64(t1.Sub(origin))})
				}
				if check != nil {
					check(i, rw, st)
				}
			}
		}(i, per[i])
	}
	start = time.Now()
	close(open)
	wg.Wait()
	out := &rungStats{}
	for _, p := range per {
		out.merge(p)
	}
	return out
}

// routerStep replays a window's router calls, timing each call with
// chained clock reads so the per-kind times add up to the window.
func routerStep(o *gossip.Ours, rs *gossip.Resilient, scratch []gossip.BatchScratch, clock float64) stepFunc {
	return func(i int, rw *replayWindow, st *rungStats) {
		t := time.Now()
		for k := range rw.calls {
			c := &rw.calls[k]
			refused, wrong := c.exec(o, rs, &scratch[i])
			t1 := time.Now()
			s := c.slot()
			st.slotNanos[s] += int64(float64(t1.Sub(t)) - clock)
			st.slotFrames[s] += uint64(c.frames())
			t = t1
			if refused {
				st.refused++
			}
			if wrong {
				st.wrong++
			}
		}
	}
}

// addUpLow and addUpHigh bound the add-up check: wire.parse +
// gossip.router + wire.append per frame, over server.handle per frame.
// The rungs below the server leave out only its own glue (name
// interning, counters, dispatch), so their sum must account for at
// least half of the handler's time, and may exceed it only by the
// timing error of the per-call spans.
const (
	addUpLow  = 0.5
	addUpHigh = 1.15
)

// ladder replays the run's windows down the rungs below the socket,
// the rungs taking turns, and reports each layer's time per frame. tcp
// is the traced TCP run, whose mean window the socket's share is
// computed from; span times count from origin. It returns the rungs for
// the span file.
func ladder(wl *workload, r *rig, tcp *phaseStats, origin time.Time, put func(string, float64, string)) ([]*rungStats, []string) {
	streams, err := prepare(wl, r)
	if err != nil {
		return nil, []string{err.Error()}
	}
	if problems := checkFusion(r, streams); problems != nil {
		return nil, problems
	}
	o := r.srv.Router()
	var rs *gossip.Resilient
	if r.policy != nil {
		rs = gossip.NewResilient(o, r.policy)
	}
	clock := clockCost()
	exs := []*server.Exerciser{r.srv.Exerciser(), r.srv.Exerciser()}
	respBufs := make([][]byte, len(streams))
	appendBufs := make([][]byte, len(streams))
	scratch := make([]gossip.BatchScratch, len(streams))
	type step struct {
		rung       rung
		run, check stepFunc
	}
	steps := []step{
		{rungHandle, func(i int, rw *replayWindow, st *rungStats) {
			var err error
			if respBufs[i], err = exs[i].HandleBatch(rw.w.bodies, respBufs[i][:0]); err != nil {
				respBufs[i] = respBufs[i][:0] // checkResponses counts the window wrong
			}
		}, func(i int, rw *replayWindow, st *rungStats) {
			checkResponses(rw, respBufs[i], st)
		}},
		{rungRouter, routerStep(o, rs, scratch, clock), nil},
		{rungParse, func(i int, rw *replayWindow, st *rungStats) {
			for _, b := range rw.w.bodies {
				if _, err := wire.ParseReq(b); err != nil {
					st.wrong++
				}
			}
		}, nil},
		{rungAppend, func(i int, rw *replayWindow, st *rungStats) {
			b := appendBufs[i][:0]
			for _, resp := range rw.resp {
				if resp.Kind == wire.KindBool {
					b = wire.AppendBool(b, resp.Bool)
				} else {
					b = wire.AppendOK(b)
				}
			}
			appendBufs[i] = b
		}, nil},
	}
	if rs != nil {
		steps = append(steps, step{rungBare, routerStep(o, nil, scratch, clock), nil})
	}
	rungs := make([]*rungStats, len(steps))
	for i, s := range steps {
		rungs[i] = &rungStats{rung: s.rung}
	}
	for round := 0; round < ladderRounds; round++ {
		for i, s := range steps {
			rungs[i].merge(replay(s.rung, uint16(round), origin, streams, clock, s.run, s.check))
		}
	}
	handle, router, parse, appendR := rungs[0], rungs[1], rungs[2], rungs[3]
	bare := router
	if rs != nil {
		bare = rungs[4]
	}
	var problems []string
	for _, st := range rungs {
		if st.wrong != 0 {
			problems = append(problems, fmt.Sprintf("replay %s: %d wrong answers", rungNames[st.rung], st.wrong))
		}
		if st.refused != 0 {
			fmt.Printf("replay %s: %d router calls refused by the policy\n", rungNames[st.rung], st.refused)
		}
	}

	handleNs := handle.nsPerFrame()
	put("net.server.handle_ns_per_frame", handleNs, "ns")
	put("net.socket_us_per_window", tcp.windowUs()-handleNs*winSize/1e3, "us")
	put("net.wire.parse_ns_per_frame", parse.nsPerFrame(), "ns")
	put("net.wire.append_ns_per_frame", appendR.nsPerFrame(), "ns")
	put("gossip.lookup_ns", bare.slotNs(slotLookup), "ns")
	put("gossip.unicast_ns", bare.slotNs(slotUnicast), "ns")
	put("gossip.unicast_batch_ns_per_frame", bare.slotNs(slotBatch), "ns")
	put("gossip.register_ns", bare.slotNs(slotRegister), "ns")
	put("gossip.unregister_ns", bare.slotNs(slotUnregister), "ns")
	overhead := 0.0
	if rs != nil {
		overhead = router.callNsPerFrame() - bare.callNsPerFrame()
	}
	put("resilience.overhead_ns_per_op", overhead, "ns")

	below := parse.nsPerFrame() + router.callNsPerFrame() + appendR.nsPerFrame()
	addUp := below / handleNs
	put("trace.addup_ratio", addUp, "ratio")
	if addUp < addUpLow || addUp > addUpHigh {
		problems = append(problems, fmt.Sprintf("add-up: parse+router+append is %.3f of server.handle per frame, outside [%v, %v]", addUp, addUpLow, addUpHigh))
	}
	fmt.Printf("ladder (ns/frame, one %.1f ns clock read removed per span): handle %.1f = parse %.1f + router %.1f + append %.1f + server glue %.1f (add-up %.3f)\n",
		clock, handleNs, parse.nsPerFrame(), router.callNsPerFrame(), appendR.nsPerFrame(), handleNs-below, addUp)

	// Allocations on the server's handler: one virtual connection whose
	// intern table has seen every name of the ring.
	ex := r.srv.Exerciser()
	var resp []byte
	for _, rw := range streams[0] {
		resp, _ = ex.HandleBatch(rw.w.bodies, resp[:0])
	}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		rw := &streams[0][n%len(streams[0])]
		n++
		resp, _ = ex.HandleBatch(rw.w.bodies, resp[:0])
	})
	put("net.server.allocs_per_frame", allocs/winSize, "allocs")
	return rungs, problems
}

// checkResponses checks the response frames server.handle produced for
// a window against the answers rw.resp expects: error frames count as
// refused, a wrong kind or a wrong answer to a lookup of a seeded or
// never-registered member as wrong.
func checkResponses(rw *replayWindow, resp []byte, st *rungStats) {
	off := 0
	for j, want := range rw.resp {
		if len(resp)-off < wire.HeaderLen {
			st.wrong += uint64(len(rw.resp) - j)
			return
		}
		end := off + wire.HeaderLen + int(binary.BigEndian.Uint32(resp[off:]))
		if end > len(resp) {
			st.wrong += uint64(len(rw.resp) - j)
			return
		}
		got, err := wire.ParseResp(resp[off+wire.HeaderLen : end])
		off = end
		switch {
		case err != nil || (got.Kind != want.Kind && got.Kind != wire.KindErr):
			st.wrong++
		case got.Kind == wire.KindErr:
			st.refused++
		case want.Kind == wire.KindBool && (rw.w.ops[j].expect == expectTrue || rw.w.ops[j].expect == expectFalse) && got.Bool != want.Bool:
			st.wrong++
		}
	}
	if off != len(resp) {
		st.wrong++
	}
}

// checkFusion runs each ring once through a server.Exerciser and checks
// that the server fused exactly the unicast runs prepare found, so that
// the gossip.router rung times the calls the server makes.
func checkFusion(r *rig, streams [][]replayWindow) []string {
	var runs, fused uint64
	for _, ring := range streams {
		for _, rw := range ring {
			for _, c := range rw.calls {
				if c.run != nil {
					runs++
					fused += uint64(len(c.run))
				}
			}
		}
	}
	before := netTotals(r.srv)
	var resp []byte
	var err error
	for _, ring := range streams {
		ex := r.srv.Exerciser()
		for _, rw := range ring {
			if resp, err = ex.HandleBatch(rw.w.bodies, resp[:0]); err != nil {
				return []string{fmt.Sprintf("fusion check: %v", err)}
			}
		}
	}
	after := netTotals(r.srv)
	batches, batched := after["batches"]-before["batches"], after["batched_frames"]-before["batched_frames"]
	if batches != runs || batched != fused {
		return []string{fmt.Sprintf("fusion check: the server fused %d runs of %d frames, the replay %d runs of %d frames",
			batches, batched, runs, fused)}
	}
	return nil
}

// clockCost is the cost of one time.Now, the unit replay subtracts per
// clock read it adds to a span.
func clockCost() float64 {
	best := 0.0
	for r := 0; r < 5; r++ {
		const n = 200000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		if c := float64(time.Since(t0)) / n; r == 0 || c < best {
			best = c
		}
	}
	return best
}

// writeSpans writes every kept span as tab-separated text: rung, parent
// rung, turn (the traced TCP slice or ladder round), connection, request
// id (the window's sequence number on its connection within the turn),
// the window's ring position, start and end in ns since the traced run's
// origin.
func writeSpans(path string, tcp []span, ladder []*rungStats) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "rung\tparent\tturn\tconn\tseq\tring\tstart_ns\tend_ns")
	for _, s := range tcp {
		fmt.Fprintf(bw, "%s\t-\t%d\t%d\t%d\t%d\t%d\t%d\n", rungNames[rungWindow], s.turn, s.conn, s.seq, s.ring, s.start, s.end)
	}
	for _, st := range ladder {
		for _, s := range st.spans {
			fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", rungNames[s.rung], rungNames[rungParent[s.rung]], s.turn, s.conn, s.seq, s.ring, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
