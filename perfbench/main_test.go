package main

import "testing"

func TestTrimmedMeanDropsOuterTenths(t *testing.T) {
	xs := []float64{1000, 5, 3, 4, 6, 2, 7, 8, 9, -1000}
	if got := trimmedMean(xs); got != 5.5 {
		t.Fatalf("trimmedMean = %v, want 5.5 (the mean of 2..9)", got)
	}
	if got := trimmedMean([]float64{7}); got != 7 {
		t.Fatalf("trimmedMean of one value = %v, want 7", got)
	}
}
