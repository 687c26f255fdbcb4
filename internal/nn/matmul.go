package nn

// Order-preserving batched kernels that skip exact-zero terms.
//
// Every kernel here sums in exactly the order the per-sample path does —
// ascending input index k for forward dots, ascending output index o for
// input gradients, ascending batch row b for parameter gradients — so the
// batched training path is bit-identical to per-sample training, not just
// "close". Optimizations are restricted to traversal order of *independent*
// elements (row/column blocking, multi-output unrolling that shares input
// loads), never to reassociating a single element's sum.
//
// Each kernel first compacts the indices of the nonzero input values,
// output deltas or batch-row deltas of the current row or column into an
// arena buffer, then runs its 4-wide blocks over those indices only, still
// in ascending order. Most terms of the deep-Q learn step are zero: the
// one-hot features, dead ReLU units, and a masked target whose gradient is
// nonzero only at the executed mini-actions. Skipping a term w·0 is exact,
// because the term is ±0 and adding ±0 leaves an accumulator unchanged
// unless the accumulator is -0. No accumulator is ever -0: each starts at
// +0 or at a bias, which newDense never lets be -0 and an optimizer step
// cannot turn into -0 (x - y is -0 only when x is), and a sum of values
// that are not both -0 is never -0. The term is ±0 only when its other
// factor is finite: weights are (initialization and Load give finite
// values, and a step whose loss is non-finite is skipped), and inputs and
// activations are unless a caller passes non-finite inputs or a forward
// pass overflows.

// nonzero writes the indices of v's nonzero entries into buf, in
// ascending order, and returns them. NaN counts as nonzero.
func nonzero(buf []int, v []float64) []int {
	n := 0
	for i, x := range v {
		if x != 0 {
			buf[n] = i
			n++
		}
	}
	return buf[:n]
}

// forwardRows computes z[b] = W·x[b] + bias for batch rows b in [0, rows).
// x is rows×in flat, z is rows×out flat, w is out×in row-major, and idx
// holds at least in ints. Outputs are computed four at a time so each load
// of x[b][k] feeds four dot products; each dot runs k ascending over the
// nonzero inputs.
func forwardRows(w, bias, x, z []float64, idx []int, in, out, rows int) {
	for b := 0; b < rows; b++ {
		xrow := x[b*in : (b+1)*in]
		zrow := z[b*out : (b+1)*out]
		ks := nonzero(idx, xrow)
		o := 0
		for ; o+3 < out; o += 4 {
			r0 := w[(o+0)*in : (o+1)*in]
			r1 := w[(o+1)*in : (o+2)*in]
			r2 := w[(o+2)*in : (o+3)*in]
			r3 := w[(o+3)*in : (o+4)*in]
			s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			for _, k := range ks {
				xv := xrow[k]
				s0 += r0[k] * xv
				s1 += r1[k] * xv
				s2 += r2[k] * xv
				s3 += r3[k] * xv
			}
			zrow[o], zrow[o+1], zrow[o+2], zrow[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			row := w[o*in : (o+1)*in]
			sum := bias[o]
			for _, k := range ks {
				sum += row[k] * xrow[k]
			}
			zrow[o] = sum
		}
	}
}

// inputGradRows computes dx[b] = Wᵀ·dz[b] for batch rows b in [0, rows):
// dx[b][i] = Σ_o w[o][i]·dz[b][o], o ascending over the nonzero deltas,
// exactly as the per-sample backward accumulates it. idx holds at least
// out ints.
func inputGradRows(w, dz, dx []float64, idx []int, in, out, rows int) {
	for b := 0; b < rows; b++ {
		dzrow := dz[b*out : (b+1)*out]
		dxrow := dx[b*in : (b+1)*in]
		clear(dxrow)
		os := nonzero(idx, dzrow)
		// Four outputs per pass: dxrow is loaded/stored once for four
		// o-terms, each element still accumulated o ascending through one
		// sequential chain.
		j := 0
		for ; j+3 < len(os); j += 4 {
			o0, o1, o2, o3 := os[j], os[j+1], os[j+2], os[j+3]
			d0, d1, d2, d3 := dzrow[o0], dzrow[o1], dzrow[o2], dzrow[o3]
			r0 := w[o0*in : (o0+1)*in]
			r1 := w[o1*in : (o1+1)*in]
			r2 := w[o2*in : (o2+1)*in]
			r3 := w[o3*in : (o3+1)*in]
			for i := range dxrow {
				v := dxrow[i]
				v += r0[i] * d0
				v += r1[i] * d1
				v += r2[i] * d2
				v += r3[i] * d3
				dxrow[i] = v
			}
		}
		for ; j < len(os); j++ {
			o := os[j]
			d := dzrow[o]
			row := w[o*in : (o+1)*in]
			for i, wv := range row {
				dxrow[i] += wv * d
			}
		}
	}
}

// paramGradRows accumulates gw[o] += Σ_b dz[b][o]·x[b] and
// gb[o] += Σ_b dz[b][o] for every output row o, b ascending over the batch
// rows whose delta is nonzero — the same per-element order as per-sample
// accumulation. idx holds at least rows ints.
func paramGradRows(x, dz, gw, gb []float64, idx []int, in, out, rows int) {
	for o := 0; o < out; o++ {
		n := 0
		for b := 0; b < rows; b++ {
			if dz[b*out+o] != 0 {
				idx[n] = b
				n++
			}
		}
		bs := idx[:n]
		grow := gw[o*in : (o+1)*in]
		gbo := gb[o]
		// Four batch rows per pass: grow is loaded/stored once for four
		// b-terms, each element still accumulated b ascending through one
		// sequential chain.
		j := 0
		for ; j+3 < len(bs); j += 4 {
			b0, b1, b2, b3 := bs[j], bs[j+1], bs[j+2], bs[j+3]
			d0, d1, d2, d3 := dz[b0*out+o], dz[b1*out+o], dz[b2*out+o], dz[b3*out+o]
			x0 := x[b0*in : (b0+1)*in]
			x1 := x[b1*in : (b1+1)*in]
			x2 := x[b2*in : (b2+1)*in]
			x3 := x[b3*in : (b3+1)*in]
			for i := range grow {
				g := grow[i]
				g += d0 * x0[i]
				g += d1 * x1[i]
				g += d2 * x2[i]
				g += d3 * x3[i]
				grow[i] = g
			}
			gbo += d0
			gbo += d1
			gbo += d2
			gbo += d3
		}
		for ; j < len(bs); j++ {
			b := bs[j]
			d := dz[b*out+o]
			xrow := x[b*in : (b+1)*in]
			for i, xv := range xrow {
				grow[i] += d * xv
			}
			gbo += d
		}
		gb[o] = gbo
	}
}
