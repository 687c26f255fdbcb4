package nn

// refNet runs the naive per-neuron loops over a Network's weights: every
// term summed, including exact zeros, with no blocking or compaction. It is
// the independent reference the batched kernels are tested against, kept
// apart from them so a kernel bug cannot hide in both.
type refNet struct {
	n       *Network
	x, z, a [][]float64 // per layer, the last forward pass's input, pre-activation and activation
}

func newRef(n *Network) *refNet {
	r := &refNet{n: n}
	for _, l := range n.layers {
		r.x = append(r.x, make([]float64, l.in))
		r.z = append(r.z, make([]float64, l.out))
		r.a = append(r.a, make([]float64, l.out))
	}
	return r
}

// forward runs one sample through the network and returns its outputs,
// which the next forward overwrites.
func (r *refNet) forward(x []float64) []float64 {
	for li, l := range r.n.layers {
		copy(r.x[li], x)
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, xi := range x {
				sum += row[i] * xi
			}
			r.z[li][o] = sum
		}
		l.act.Apply(r.z[li], r.a[li])
		x = r.a[li]
	}
	return x
}

// backward accumulates the last forward sample's gradients into the
// layers' gw/gb, given dL/d(outputs).
func (r *refNet) backward(dOut []float64) {
	d := dOut
	for li := len(r.n.layers) - 1; li >= 0; li-- {
		l := r.n.layers[li]
		dz := make([]float64, l.out)
		l.act.Derivative(r.z[li], r.a[li], dz)
		for o := range dz {
			dz[o] *= d[o]
		}
		dx := make([]float64, l.in)
		for o := 0; o < l.out; o++ {
			row := l.w[o*l.in : (o+1)*l.in]
			grow := l.gw[o*l.in : (o+1)*l.in]
			for i := 0; i < l.in; i++ {
				grow[i] += dz[o] * r.x[li][i]
				dx[i] += row[i] * dz[o]
			}
			l.gb[o] += dz[o]
		}
		d = dx
	}
}

// trainPerSampleReference is the original sample-at-a-time TrainBatch over
// the naive loops, the golden reference the batched engine must match.
func trainPerSampleReference(n *Network, batch []Sample, loss Loss, opt Optimizer) (float64, error) {
	for _, l := range n.layers {
		l.zeroGrads()
	}
	r := newRef(n)
	var total float64
	dOut := make([]float64, n.Outputs())
	for _, s := range batch {
		pred := r.forward(s.X)
		total += loss.Loss(pred, s.Y)
		loss.Grad(pred, s.Y, dOut)
		r.backward(dOut)
	}
	scale := 1 / float64(len(batch))
	if mean := total * scale; isNonFinite(mean) {
		return mean, &DivergenceError{Loss: mean}
	}
	for _, l := range n.layers {
		l.scaleGrads(scale)
		opt.Step(l.wKey, l.w, l.gw)
		opt.Step(l.bKey, l.b, l.gb)
	}
	return total * scale, nil
}
