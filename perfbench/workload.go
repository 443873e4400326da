package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"repro/internal/net/wire"
)

// winSize is the number of frames a connection writes in one write
// before it reads the responses: the closed loop's window.
const winSize = 16

// payloadLen is the unicast payload size.
const payloadLen = 64

// ringWindows is how many distinct pre-encoded windows each connection
// cycles through; the stream repeats after ringWindows·winSize frames.
const ringWindows = 1024

// Expected lookup answers.
const (
	expectFalse     int8 = 0
	expectTrue      int8 = 1
	expectUnchecked int8 = -1 // transient member: either answer is valid
	// expectOwn: a transient member looked up by the connection that
	// churns it. The server handles a connection's frames in order, so
	// the answer must match that connection's last acknowledged register
	// or unregister of the member.
	expectOwn int8 = -2
)

// op is one request of a window and what a correct answer looks like.
type op struct {
	kind   wire.Kind
	target int32 // unicast: index into stable; register, unregister and expectOwn lookups: index into transient
	expect int8  // lookups only
}

// window is one pre-encoded write of winSize request frames.
type window struct {
	bytes  []byte   // the frames, length prefixes included
	bodies [][]byte // each frame's body, aliasing bytes
	ops    [winSize]op
}

type member struct{ group, name string }

// workload is everything a run sends, generated from the seed before the
// server exists: the membership to seed, the members churned at run
// time, and one ring of windows per connection.
type workload struct {
	name      string
	why       string
	resilient bool // serve through the gossipd -resilience policy
	stable    []member
	transient []member
	streams   [2][]window
}

var workloads = []struct {
	name string
	why  string
	gen  func(rng *rand.Rand) *workload
}{
	{"lookup-window", "windows of 16 lookups over a seeded 64x64 membership: the lock-free optimistic read path, so wire codec and socket costs dominate; bypasses resilience and batch fusion", genLookup},
	{"unicast-window", "windows of 16 unicasts across 16 groups: each window is one fused UnicastBatchV/AcquireBatch prologue over several mechanisms; bypasses the optimistic path and resilience", genUnicast},
	{"churn-resilient", "one hot group under the gossipd -resilience policy: register/unregister churn beside lookups and unicasts, so writers meet readers and every section passes gate, breaker and budget", genChurn},
}

// generate builds the named workload from seed.
func generate(name string, seed uint64) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			wl := w.gen(rand.New(rand.NewPCG(seed, 0x5eed)))
			wl.name, wl.why = w.name, w.why
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// names returns n distinct names with prefix p and a seeded suffix; the
// prefix keeps the families (groups, stable, never-registered,
// transient) disjoint whatever the seed.
func names(rng *rand.Rand, p string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d-%08x", p, i, rng.Uint32())
	}
	return out
}

func universe(rng *rand.Rand, groups, members int) (gs []string, stable []member) {
	gs = names(rng, "g", groups)
	ms := names(rng, "m", members)
	for _, g := range gs {
		for _, m := range ms {
			stable = append(stable, member{g, m})
		}
	}
	return gs, stable
}

// composer encodes one window at a time.
type composer struct {
	rng *rand.Rand
	w   window
	n   int
}

func (b *composer) add(o op, appendFrame func([]byte) ([]byte, error)) {
	var err error
	if b.w.bytes, err = appendFrame(b.w.bytes); err != nil {
		panic(err) // names are generated within wire limits
	}
	b.w.ops[b.n] = o
	b.n++
}

// done seals the window: bodies alias the final encoded bytes.
func (b *composer) done() window {
	w := b.w
	for off := 0; off < len(w.bytes); {
		n := int(binary.BigEndian.Uint32(w.bytes[off:]))
		w.bodies = append(w.bodies, w.bytes[off+wire.HeaderLen:off+wire.HeaderLen+n])
		off += wire.HeaderLen + n
	}
	b.w, b.n = window{}, 0
	return w
}

func (b *composer) lookup(m member, expect int8) {
	b.lookupOwn(m, -1, expect)
}

func (b *composer) lookupOwn(m member, target int, expect int8) {
	b.add(op{kind: wire.KindLookup, target: int32(target), expect: expect}, func(d []byte) ([]byte, error) {
		return wire.AppendLookup(d, m.group, m.name)
	})
}

func (b *composer) unicast(stable []member, i int) {
	payload := make([]byte, payloadLen)
	for j := range payload {
		payload[j] = byte(b.rng.Uint32())
	}
	b.add(op{kind: wire.KindUnicast, target: int32(i)}, func(d []byte) ([]byte, error) {
		return wire.AppendUnicast(d, stable[i].group, stable[i].name, payload)
	})
}

func (b *composer) churn(transient []member, i int, register bool) {
	m := transient[i]
	if register {
		b.add(op{kind: wire.KindRegister, target: int32(i)}, func(d []byte) ([]byte, error) {
			return wire.AppendRegister(d, m.group, m.name)
		})
		return
	}
	b.add(op{kind: wire.KindUnregister, target: int32(i)}, func(d []byte) ([]byte, error) {
		return wire.AppendUnregister(d, m.group, m.name)
	})
}

// genLookup: both connections look up seeded (group, member) pairs; one
// in eight targets a member or group that was never registered.
func genLookup(rng *rand.Rand) *workload {
	gs, stable := universe(rng, 64, 64)
	absentMembers := names(rng, "n", 256)
	absentGroups := names(rng, "a", 16)
	wl := &workload{stable: stable}
	for c := range wl.streams {
		b := &composer{rng: rng}
		for w := 0; w < ringWindows; w++ {
			for i := 0; i < winSize; i++ {
				switch r := rng.IntN(16); {
				case r == 0:
					b.lookup(member{gs[rng.IntN(len(gs))], absentMembers[rng.IntN(len(absentMembers))]}, expectFalse)
				case r == 1:
					b.lookup(member{absentGroups[rng.IntN(len(absentGroups))], stable[rng.IntN(len(stable))].name}, expectFalse)
				default:
					b.lookup(stable[rng.IntN(len(stable))], expectTrue)
				}
			}
			wl.streams[c] = append(wl.streams[c], b.done())
		}
	}
	return wl
}

// genUnicast: both connections send windows of unicasts to seeded
// members of 16 groups, so one fused batch spans several member maps.
func genUnicast(rng *rand.Rand) *workload {
	_, stable := universe(rng, 16, 64)
	wl := &workload{stable: stable}
	for c := range wl.streams {
		b := &composer{rng: rng}
		for w := 0; w < ringWindows; w++ {
			for i := 0; i < winSize; i++ {
				b.unicast(stable, rng.IntN(len(stable)))
			}
			wl.streams[c] = append(wl.streams[c], b.done())
		}
	}
	return wl
}

// genChurn: one hot group. Connection 0 mixes register/unregister of
// transient members with unicasts to stable ones, and reads its own
// writes back with lookups of the members it churns; connection 1 mixes
// lookups (stable, transient and never-registered members) with
// unicasts.
func genChurn(rng *rand.Rand) *workload {
	_, stable := universe(rng, 1, 64)
	hot := stable[0].group
	var transient []member
	for _, n := range names(rng, "t", 32) {
		transient = append(transient, member{hot, n})
	}
	absent := names(rng, "n", 64)
	wl := &workload{resilient: true, stable: stable, transient: transient}

	b := &composer{rng: rng}
	for w := 0; w < ringWindows; w++ {
		for i := 0; i < winSize; i++ {
			switch r := rng.IntN(16); {
			case r < 5:
				b.churn(transient, rng.IntN(len(transient)), rng.IntN(2) == 0)
			case r < 7:
				t := rng.IntN(len(transient))
				b.lookupOwn(transient[t], t, expectOwn)
			default:
				b.unicast(stable, rng.IntN(len(stable)))
			}
		}
		wl.streams[0] = append(wl.streams[0], b.done())
	}
	for w := 0; w < ringWindows; w++ {
		for i := 0; i < winSize; i++ {
			switch r := rng.IntN(20); {
			case r < 5:
				b.unicast(stable, rng.IntN(len(stable)))
			case r < 11:
				b.lookup(stable[rng.IntN(len(stable))], expectTrue)
			case r < 17:
				b.lookup(transient[rng.IntN(len(transient))], expectUnchecked)
			default:
				b.lookup(member{hot, absent[rng.IntN(len(absent))]}, expectFalse)
			}
		}
		wl.streams[1] = append(wl.streams[1], b.done())
	}
	return wl
}
