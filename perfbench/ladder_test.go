package main

import (
	"testing"

	"repro/internal/net/wire"
)

func TestCheckResponsesCountsWrongAndRefused(t *testing.T) {
	rw := &replayWindow{w: &window{}}
	ops := []op{
		{kind: wire.KindLookup, expect: expectTrue},
		{kind: wire.KindLookup, expect: expectFalse},
		{kind: wire.KindLookup, expect: expectUnchecked},
		{kind: wire.KindUnicast},
	}
	for j, o := range ops {
		rw.w.ops[j] = o
		want := wire.Resp{Kind: wire.KindOK}
		if o.kind == wire.KindLookup {
			want = wire.Resp{Kind: wire.KindBool, Bool: o.expect == expectTrue}
		}
		rw.resp = append(rw.resp, want)
	}
	right := wire.AppendOK(wire.AppendBool(wire.AppendBool(wire.AppendBool(nil, true), false), true))
	for _, tc := range []struct {
		name           string
		resp           []byte
		wrong, refused uint64
	}{
		{"right", right, 0, 0},
		{"seeded member missing", wire.AppendOK(wire.AppendBool(wire.AppendBool(wire.AppendBool(nil, false), false), true)), 1, 0},
		{"refused unicast", wire.AppendErr(wire.AppendBool(wire.AppendBool(wire.AppendBool(nil, true), false), false), wire.CodeShed), 0, 1},
		{"bool for a unicast", wire.AppendBool(wire.AppendBool(wire.AppendBool(wire.AppendBool(nil, true), false), true), true), 1, 0},
		{"short", right[:len(right)-1], 1, 0},
		{"trailing bytes", wire.AppendOK(right), 1, 0},
	} {
		st := &rungStats{}
		checkResponses(rw, tc.resp, st)
		if st.wrong != tc.wrong || st.refused != tc.refused {
			t.Errorf("%s: wrong %d refused %d, want %d and %d", tc.name, st.wrong, st.refused, tc.wrong, tc.refused)
		}
	}
}
