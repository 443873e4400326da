package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/net/wire"
)

// client is one benchmark connection. It writes a whole window of
// pre-encoded frames in one write, then reads the responses straight off
// the socket, stamping each with the time the read that delivered it
// returned. Everything it touches per window is preallocated.
type client struct {
	nc     net.Conn
	stream []window
	next   int // next window of the ring
	rbuf   []byte
	have   int
	t      tally
}

// tally is one connection's record of what it sent and what came back:
// the output checks run over it.
type tally struct {
	attempted uint64
	failed    uint64 // error frames, I/O failures and wrong answers
	wrong     uint64 // answers that contradict the seeded membership
	refusals  [8]uint64
	reqBytes  uint64
	respBytes uint64
	acks      []uint64    // acknowledged unicasts by stable index
	last      []wire.Kind // last acknowledged register/unregister by transient index
	err       error       // first I/O or protocol failure; the connection stops
}

func newClient(nc net.Conn, wl *workload, stream []window) *client {
	return &client{
		nc:     nc,
		stream: stream,
		rbuf:   make([]byte, 4<<10),
		t: tally{
			acks: make([]uint64, len(wl.stable)),
			last: make([]wire.Kind, len(wl.transient)),
		},
	}
}

// check accounts one response against the op it answers.
func (c *client) check(o *op, body []byte) bool {
	c.t.attempted++
	resp, err := wire.ParseResp(body)
	switch {
	case err != nil:
		c.t.wrong++
	case resp.Kind == wire.KindErr:
		c.t.refusals[resp.Code&7]++
	case o.kind == wire.KindLookup:
		want := o.expect == expectTrue
		if o.expect == expectOwn {
			want = c.t.last[o.target] == wire.KindRegister
		}
		if resp.Kind != wire.KindBool || (o.expect != expectUnchecked && resp.Bool != want) {
			c.t.wrong++
			break
		}
		return true
	case resp.Kind != wire.KindOK:
		c.t.wrong++
	default:
		switch o.kind {
		case wire.KindUnicast:
			c.t.acks[o.target]++
		case wire.KindRegister, wire.KindUnregister:
			c.t.last[o.target] = o.kind
		}
		return true
	}
	c.t.failed++
	return false
}

// fail ends the connection's run, counting the rest of the window as
// failed.
func (c *client) fail(err error, unanswered int) {
	c.t.err = err
	c.t.attempted += uint64(unanswered)
	c.t.failed += uint64(unanswered)
}

// roundTrip sends one window and reads its winSize responses, recording
// each successful operation's latency. It returns the number of
// successful operations and the time the last response arrived.
func (c *client) roundTrip(w *window, t0 time.Time, h *Hist) (int, time.Time) {
	if _, err := c.nc.Write(w.bytes); err != nil {
		c.fail(fmt.Errorf("write: %w", err), winSize)
		return 0, t0
	}
	c.t.reqBytes += uint64(len(w.bytes))
	ok, got := 0, 0
	var arrived time.Time
	for got < winSize {
		n, err := c.nc.Read(c.rbuf[c.have:])
		arrived = time.Now()
		if err != nil {
			c.fail(fmt.Errorf("read: %w", err), winSize-got)
			return ok, arrived
		}
		c.have += n
		off := 0
		for got < winSize && c.have-off >= wire.HeaderLen {
			l := int(binary.BigEndian.Uint32(c.rbuf[off:]))
			end := off + wire.HeaderLen + l
			if end > len(c.rbuf) {
				c.fail(fmt.Errorf("response frame of %d bytes", l), winSize-got)
				return ok, arrived
			}
			if end > c.have {
				break
			}
			if c.check(&w.ops[got], c.rbuf[off+wire.HeaderLen:end]) {
				ok++
				h.Record(arrived.Sub(t0))
			}
			got++
			off = end
		}
		c.t.respBytes += uint64(off)
		c.have = copy(c.rbuf, c.rbuf[off:c.have])
	}
	if c.have != 0 {
		c.fail(fmt.Errorf("%d unsolicited response bytes", c.have), 0)
	}
	return ok, arrived
}

// span is one traced window: the traced slice it ran in, its sequence
// number within that slice, its ring position, the connection, and its
// start and end in nanoseconds since the phase opened (the traced run
// rebases them onto its own origin).
type span struct {
	turn       uint16
	seq        uint64
	ring       uint32
	conn       uint8
	start, end int64
}

// phaseStats is what one closed-loop phase measured.
type phaseStats struct {
	ops      uint64 // successful operations in windows started in the phase
	windows  uint64
	winNanos int64         // summed window round trips
	opened   time.Time     // when the phase started its clients
	elapsed  time.Duration // phase start to the last response
	subOps   []uint64      // per sub-window, by window start
	subHist  []Hist
	spans    []span
}

// windowUs is the mean window round trip in microseconds.
func (p *phaseStats) windowUs() float64 {
	return float64(p.winNanos) / 1e3 / float64(p.windows)
}

func (p *phaseStats) merge(o *phaseStats) {
	p.ops += o.ops
	p.windows += o.windows
	p.winNanos += o.winNanos
	p.elapsed = max(p.elapsed, o.elapsed)
	for i := range o.subOps {
		p.subOps[i] += o.subOps[i]
		p.subHist[i].Merge(&o.subHist[i])
	}
	p.spans = append(p.spans, o.spans...)
}

func newPhaseStats(subs int, spanCap int) *phaseStats {
	p := &phaseStats{subOps: make([]uint64, subs), subHist: make([]Hist, subs)}
	if spanCap > 0 {
		p.spans = make([]span, 0, spanCap)
	}
	return p
}

// maxSpans caps the spans one connection keeps per traced phase.
const maxSpans = 1 << 12

// runPhase drives every client in a closed loop for d: each connection
// starts a new window only after the previous one's responses are all
// in. Windows are attributed to the sub-window (of length sub) in which
// they started. With traced set every window also leaves a span.
func runPhase(clients []*client, d, sub time.Duration, traced bool) *phaseStats {
	subs := int((d + sub - 1) / sub)
	spanCap := 0
	if traced {
		spanCap = maxSpans
	}
	per := make([]*phaseStats, len(clients))
	for i := range per {
		per[i] = newPhaseStats(subs, spanCap)
	}
	var start time.Time
	open := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client, ps *phaseStats) {
			defer wg.Done()
			<-open
			deadline := start.Add(d)
			var last time.Time
			for c.t.err == nil {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				k := min(int(t0.Sub(start)/sub), subs-1)
				ring := c.next
				w := &c.stream[ring]
				c.next = (c.next + 1) % len(c.stream)
				ok, end := c.roundTrip(w, t0, &ps.subHist[k])
				ps.ops += uint64(ok)
				ps.subOps[k] += uint64(ok)
				ps.windows++
				ps.winNanos += int64(end.Sub(t0))
				last = end
				if traced && len(ps.spans) < cap(ps.spans) {
					ps.spans = append(ps.spans, span{
						seq: ps.windows, ring: uint32(ring), conn: uint8(i),
						start: int64(t0.Sub(start)), end: int64(end.Sub(start)),
					})
				}
			}
			if !last.IsZero() {
				ps.elapsed = last.Sub(start)
			}
		}(i, c, per[i])
	}
	start = time.Now()
	close(open)
	wg.Wait()
	out := newPhaseStats(subs, 0)
	out.opened = start
	for _, p := range per {
		out.merge(p)
	}
	return out
}
