package main

import (
	"math"
	"math/bits"
	"time"
)

// Hist is a log-linear latency histogram over nanoseconds. Values below
// 256 ns get one bucket each; above that every power of two is split
// into 128 equal sub-buckets, so a bucket is at most 1/128 of its lower
// bound wide and the reported midpoint is within 0.4% of any sample in
// it. The counts live in a fixed array: recording never allocates and
// never grows, which keeps page faults out of the measured window.
// Not safe for concurrent use; each worker records into its own and the
// results are merged.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histExact   = 2 * histSub      // values below this are exact
	histMaxBits = 40               // 2^40 ns ≈ 18 min; larger samples clamp
	histBuckets = histExact + (histMaxBits-histSubBits-1)*histSub
)

// histIndex maps a value to its bucket.
func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	n := bits.Len64(v)
	if n > histMaxBits {
		return histBuckets - 1
	}
	shift := n - histSubBits - 1 // ≥ 1
	return histExact + (shift-1)*histSub + int(v>>shift) - histSub
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	shift := (i-histExact)/histSub + 1
	lo := uint64(histSub+(i-histExact)%histSub) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

// Record adds one sample.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the q-th (0..1) sample in nanoseconds: the midpoint
// of the bucket holding the sample of rank ceil(q·n).
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
