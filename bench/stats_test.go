package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"single", []float64{7}, 0.5, 7},
		{"single tail", []float64{7}, 0.99, 7},
		{"odd median", []float64{1, 2, 9}, 0.5, 2},
		{"even median interpolates", []float64{1, 2, 3, 10}, 0.5, 2.5},
		{"min", []float64{1, 2, 3, 10}, 0, 1},
		{"max", []float64{1, 2, 3, 10}, 1, 10},
		{"quartile", []float64{0, 10, 20, 30, 40}, 0.25, 10},
		{"between ranks", []float64{0, 10, 20, 30, 40}, 0.9, 36},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: quantile(%v, %g) = %g, want %g", c.name, c.sorted, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample must yield NaN")
	}
}

func TestTailGuard(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		allow bool
	}{
		{999, 0.99, false}, // 9.99 samples beyond
		{1000, 0.99, true},
		{199, 0.95, false},
		{200, 0.95, true},
		{100, 0.90, true},
		{99, 0.90, false},
		{5, 0.99, false},
	}
	for _, c := range cases {
		if got := supports(c.n, c.q); got != c.allow {
			t.Errorf("supports(n=%d, q=%g) = %v, want %v", c.n, c.q, got, c.allow)
		}
	}
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i)
	}
	if v, err := tail(sample, 0.99); err != nil || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail(0..999, 0.99) = %g, %v; want 989.01", v, err)
	}
	if v, err := tail(sample[:999], 0.99); err == nil {
		t.Errorf("tail of 999 samples at p99 = %g, want a refusal", v)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{40, 0, 30, 10, 20})
	if s.N != 5 || s.Median != 20 || s.Q1 != 10 || s.Q3 != 30 {
		t.Fatalf("summarize = %+v", s)
	}
}
