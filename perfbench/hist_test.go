package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// exactQuantile is the sample of rank ceil(q·n) in sorted order — the
// definition Hist.Quantile approximates.
func exactQuantile(sorted []uint64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(rank, 1)
	return float64(sorted[rank-1])
}

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		var h Hist
		samples := make([]uint64, 0, 50000)
		for i := 0; i < cap(samples); i++ {
			// Log-uniform from 1 ns to ~17 s, plus a dense band near
			// typical loopback round trips.
			var v uint64
			if i%2 == 0 {
				v = uint64(math.Exp(rng.Float64() * math.Log(1.7e10)))
			} else {
				v = 20000 + rng.Uint64N(80000)
			}
			samples = append(samples, v)
			h.Record(time.Duration(v))
		}
		slices.Sort(samples)
		for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := exactQuantile(samples, q)
			got := h.Quantile(q)
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Errorf("seed %d q=%v: got %.1f want %.1f (rel err %.4f)", seed, q, got, want, rel)
			}
		}
	}
}

func TestHistExactBelow256(t *testing.T) {
	var h Hist
	for v := 0; v < histExact; v++ {
		h.Record(time.Duration(v))
	}
	for v := 1; v <= histExact; v++ {
		q := float64(v) / histExact
		if got := h.Quantile(q); got != float64(v-1) {
			t.Fatalf("q=%v: got %v want %d", q, got, v-1)
		}
	}
}

func TestHistMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	var a, b, all Hist
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.Uint64N(1 << 30))
		if i%3 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		all.Record(d)
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the one recorded directly")
	}
}

func TestHistIndexMonotoneAndBounded(t *testing.T) {
	var vals []uint64
	for n := 1; n < 64; n++ {
		vals = append(vals, 1<<n-1, 1<<n, 1<<n+1)
	}
	vals = append(vals, math.MaxUint64)
	prev := 0
	for _, v := range vals {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("v=%d: index %d (previous %d, buckets %d)", v, i, prev, histBuckets)
		}
		prev = i
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345 * time.Nanosecond) }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}
