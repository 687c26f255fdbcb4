package nn

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzLoad: arbitrary bytes must never panic the model loader, and any
// model that loads must produce finite outputs and survive a save/load
// round trip.
func FuzzLoad(f *testing.F) {
	f.Add(`{"inputs":2,"layers":[{"in":2,"out":1,"activation":"relu","w":[1,1],"b":[0]}]}`)
	f.Add(`{"inputs":1,"layers":[]}`)
	f.Add(`garbage`)
	f.Add(`{"inputs":2,"layers":[{"in":2,"out":1,"activation":"nope","w":[1,1],"b":[0]}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		net, err := Load(strings.NewReader(data))
		if err != nil {
			return
		}
		x := make([]float64, net.Inputs())
		for i := range x {
			x[i] = 0.5
		}
		out := net.Forward(x)
		if len(out) != net.Outputs() {
			t.Fatalf("output width %d, want %d", len(out), net.Outputs())
		}
		for _, v := range out {
			// Fuzzed weights may be NaN/Inf via JSON? encoding/json rejects
			// those literals, so finite weights must give finite outputs.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite output %v", v)
			}
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("loaded model failed to save: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("saved model failed to reload: %v", err)
		}
	})
}

// kernelPalette is the value set FuzzKernels draws from: signed zeros,
// which the kernels skip, and finite values of mixed sign and magnitude,
// including ones whose products overflow.
var kernelPalette = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.375, 3, 1e-310, -7e300, 2.5e300}

// FuzzKernels compares the compacted kernels with the naive loops, bit for
// bit, on shapes and values drawn from the fuzz bytes: forwardRows against
// bias + Σ_k w·x, inputGradRows against Σ_o w·dz, paramGradRows against
// Σ_b dz·x, every sum in ascending index order with every term included.
// Biases and gradient accumulators start at any palette value but -0, as
// in training (see matmul.go); inputs and deltas may be ±0 anywhere.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{3, 4, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 9, 5, 0, 0, 0, 1, 0, 0, 2, 0, 1})
	f.Add([]byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		in, out, rows := 1+int(data[0])%9, 1+int(data[1])%9, 1+int(data[2])%7
		pos := 3
		draw := func(n int, noNegZero bool) []float64 {
			v := make([]float64, n)
			for i := range v {
				if pos < len(data) {
					v[i] = kernelPalette[int(data[pos])%len(kernelPalette)]
					pos++
				}
				if noNegZero && v[i] == 0 {
					v[i] = 0
				}
			}
			return v
		}
		w, bias := draw(out*in, false), draw(out, true)
		x, dz := draw(rows*in, false), draw(rows*out, false)
		gw0, gb0 := draw(out*in, true), draw(out, true)
		idx := make([]int, max(in, out, rows))

		z := make([]float64, rows*out)
		forwardRows(w, bias, x, z, idx, in, out, rows)
		dx := make([]float64, rows*in)
		inputGradRows(w, dz, dx, idx, in, out, rows)
		gw, gb := append([]float64(nil), gw0...), append([]float64(nil), gb0...)
		paramGradRows(x, dz, gw, gb, idx, in, out, rows)

		for b := 0; b < rows; b++ {
			for o := 0; o < out; o++ {
				want := bias[o]
				for k := 0; k < in; k++ {
					want += w[o*in+k] * x[b*in+k]
				}
				if got := z[b*out+o]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("forward z[%d][%d] = %v, naive %v", b, o, got, want)
				}
			}
			for i := 0; i < in; i++ {
				var want float64
				for o := 0; o < out; o++ {
					want += w[o*in+i] * dz[b*out+o]
				}
				if got := dx[b*in+i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("input grad dx[%d][%d] = %v, naive %v", b, i, got, want)
				}
			}
		}
		for o := 0; o < out; o++ {
			wantB := gb0[o]
			for b := 0; b < rows; b++ {
				wantB += dz[b*out+o]
			}
			if math.Float64bits(gb[o]) != math.Float64bits(wantB) {
				t.Fatalf("bias grad gb[%d] = %v, naive %v", o, gb[o], wantB)
			}
			for i := 0; i < in; i++ {
				want := gw0[o*in+i]
				for b := 0; b < rows; b++ {
					want += dz[b*out+o] * x[b*in+i]
				}
				if got := gw[o*in+i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("param grad gw[%d][%d] = %v, naive %v", o, i, got, want)
				}
			}
		}
	})
}
