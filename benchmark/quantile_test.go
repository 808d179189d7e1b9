package main

import (
	"math"
	"testing"
)

func TestQuantilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) in Python.
	cases := []struct {
		data   []float64
		q1, q3 float64
		median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75, 2.5},
		{[]float64{1, 2}, 0.75, 2.25, 1.5}, // ranks outside the sample extrapolate
		{[]float64{7, 7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || math.Abs(median(c.data)-c.median) > 1e-12 {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.data, q1, q3, median(c.data), c.q1, c.q3, c.median)
		}
	}
	if median(nil) != 0 || median([]float64{3}) != 3 {
		t.Errorf("median of empty or single-sample data is wrong")
	}
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		wantQ float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.9},
		{100, 0.9},
		{99, 0.5},
		{20, 0.5},
		{19, 1}, // even the median has only nine beyond it: report the max
		{1, 1},
	}
	for _, c := range cases {
		xs := seq(c.n)
		q, v := tail(xs)
		if q != c.wantQ {
			t.Errorf("n=%d: tail quantile %v, want %v", c.n, q, c.wantQ)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if q < 1 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the p%v value %v", c.n, beyond, 100*q, v)
		}
		if q == 1 && v != float64(c.n) {
			t.Errorf("n=%d: fallback value %v, want the max", c.n, v)
		}
	}
}
