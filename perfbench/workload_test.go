package main

import (
	"bytes"
	"testing"

	"repro/internal/net/wire"
)

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w.name, 7)
		c, _ := generate(w.name, 8)
		same, differs := true, false
		for s := range a.streams {
			for i := range a.streams[s] {
				same = same && bytes.Equal(a.streams[s][i].bytes, b.streams[s][i].bytes)
				differs = differs || !bytes.Equal(a.streams[s][i].bytes, c.streams[s][i].bytes)
			}
		}
		if !same {
			t.Errorf("%s: seed 7 gave two different inputs", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same input", w.name)
		}
	}
}

func TestWindowsParseBackToTheirOps(t *testing.T) {
	for _, w := range workloads {
		wl, _ := generate(w.name, 1)
		for s, stream := range wl.streams {
			for i, win := range stream {
				if len(win.bodies) != winSize {
					t.Fatalf("%s stream %d window %d: %d frames", w.name, s, i, len(win.bodies))
				}
				for j, body := range win.bodies {
					req, err := wire.ParseReq(body)
					if err != nil {
						t.Fatalf("%s: frame does not parse: %v", w.name, err)
					}
					if req.Kind != win.ops[j].kind {
						t.Fatalf("%s: frame kind %v, op kind %v", w.name, req.Kind, win.ops[j].kind)
					}
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := generate("no-such-workload", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
