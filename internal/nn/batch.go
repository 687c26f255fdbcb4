package nn

import (
	"errors"
	"fmt"
)

// batchScratch is a per-network arena for batched passes: flat row-major
// activation/gradient planes per layer, sized once for the largest batch
// seen and reused for the network's lifetime. The gradient planes (dz, dx,
// dOut) are allocated by the first training step through the arena, so a
// forward-only network never holds them. Buffers are owned by the network —
// like Forward's output, batched results are valid until the next batched
// call.
type batchScratch struct {
	rows int // allocated batch capacity
	// fwd is the row count of the forward pass the planes hold, for
	// TrainForwarded; 0 once a training step or a weight copy made them
	// stale.
	fwd int

	x0       []float64   // rows×inputs packed input batch
	z, a     [][]float64 // per layer, rows×out
	dz       [][]float64 // per layer, rows×out
	dx       [][]float64 // per layer, rows×in (layer 0 unused)
	dOut     []float64   // rows×outputs, loss gradient
	outViews [][]float64 // row views into the last layer's a
	idx      []int       // the kernels' index compaction buffer
}

// arena returns the arena *sp, (re)grown to hold at least rows batch rows.
// Growth allocates; steady-state reuse does not.
func (n *Network) arena(sp **batchScratch, rows int) *batchScratch {
	if s := *sp; s != nil && rows <= s.rows {
		return s
	}
	L := len(n.layers)
	s := &batchScratch{
		rows: rows,
		x0:   make([]float64, rows*n.inputs),
		z:    make([][]float64, L),
		a:    make([][]float64, L),
	}
	width := rows
	for i, l := range n.layers {
		s.z[i] = make([]float64, rows*l.out)
		s.a[i] = make([]float64, rows*l.out)
		width = max(width, l.in, l.out)
	}
	s.idx = make([]int, width)
	out := n.Outputs()
	s.outViews = make([][]float64, rows)
	last := s.a[L-1]
	for b := 0; b < rows; b++ {
		s.outViews[b] = last[b*out : (b+1)*out : (b+1)*out]
	}
	*sp = s
	return s
}

// trainable gives s its gradient planes, on the first training step
// through it.
func (s *batchScratch) trainable(n *Network) {
	if s.dOut != nil {
		return
	}
	s.dz = make([][]float64, len(n.layers))
	s.dx = make([][]float64, len(n.layers))
	for i, l := range n.layers {
		s.dz[i] = make([]float64, s.rows*l.out)
		if i > 0 {
			s.dx[i] = make([]float64, s.rows*l.in)
		}
	}
	s.dOut = make([]float64, s.rows*n.Outputs())
}

// forward runs the forward pass over the first rows rows of the packed
// input x, filling each layer's z/a planes of s.
func (n *Network) forward(s *batchScratch, x []float64, rows int) {
	for li, l := range n.layers {
		z, a := s.z[li][:rows*l.out], s.a[li][:rows*l.out]
		forwardRows(l.w, l.b, x, z, s.idx, l.in, l.out, rows)
		l.act.Apply(z, a)
		x = a
	}
}

// ForwardBatch runs one forward pass over a whole batch of input rows and
// returns one output row per input. Like Forward, the returned rows are
// views into network-owned scratch, overwritten by the next batched call;
// copy them to keep them. TrainForwarded can train on the batch from the
// activations this pass leaves behind. The receiver is not safe for
// concurrent use.
func (n *Network) ForwardBatch(X [][]float64) ([][]float64, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("nn: empty input batch")
	}
	for b, x := range X {
		if len(x) != n.inputs {
			return nil, fmt.Errorf("nn: batch row %d width %d, want %d", b, len(x), n.inputs)
		}
	}
	rows := len(X)
	s := n.arena(&n.scratch, rows)
	for b, x := range X {
		copy(s.x0[b*n.inputs:(b+1)*n.inputs], x)
	}
	n.forward(s, s.x0, rows)
	s.fwd = rows
	return s.outViews[:rows], nil
}

// TrainBatch runs one mini-batch gradient step: a batched forward pass over
// the whole mini-batch, gradients accumulated per layer through the
// network's scratch arena, averaged, one optimizer step per parameter
// vector. It returns the mean loss over the batch (before the update).
//
// The batched engine sums every gradient element in the same order the
// per-sample path would (see matmul.go), so results are bit-identical to
// sample-at-a-time training. On a non-finite batch loss the optimizer step
// is skipped — gradients are poisoned too — and a typed *DivergenceError
// surfaces so the caller can recover; the weights stay finite.
func (n *Network) TrainBatch(batch []Sample, loss Loss, opt Optimizer) (float64, error) {
	if len(batch) == 0 {
		return 0, errors.New("nn: empty batch")
	}
	out := n.Outputs()
	for _, sm := range batch {
		if len(sm.X) != n.inputs || len(sm.Y) != out {
			return 0, fmt.Errorf("nn: sample arity mismatch: x=%d y=%d want %d/%d",
				len(sm.X), len(sm.Y), n.inputs, out)
		}
	}
	rows := len(batch)
	s := n.arena(&n.scratch, rows)
	s.trainable(n)
	for b, sm := range batch {
		copy(s.x0[b*n.inputs:(b+1)*n.inputs], sm.X)
	}
	n.forward(s, s.x0, rows)
	var total float64
	for b, sm := range batch {
		total += s.lossGrad(b, out, sm.Y, loss)
	}
	return n.backwardStep(s, rows, total, opt)
}

// TrainForwarded is TrainBatch for the batch the last ForwardBatch call
// evaluated, with Y[b] the target row of input row b. It trains from the
// activations that pass left in the arena instead of running it again, so
// a caller that needs the predictions to build its targets (the masked DQN
// regression) pays for one forward pass, not two; the result is
// bit-identical to TrainBatch over the same rows. It fails when the arena
// no longer holds a pass of len(Y) rows: a training step or CopyWeightsFrom
// since makes it stale, and a later ForwardBatch replaces it.
func (n *Network) TrainForwarded(Y [][]float64, loss Loss, opt Optimizer) (float64, error) {
	s := n.scratch
	if s == nil || s.fwd == 0 || s.fwd != len(Y) {
		return 0, fmt.Errorf("nn: no forward pass of %d rows to train from", len(Y))
	}
	s.trainable(n)
	out := n.Outputs()
	var total float64
	for b, y := range Y {
		if len(y) != out {
			return 0, fmt.Errorf("nn: target row %d width %d, want %d", b, len(y), out)
		}
		total += s.lossGrad(b, out, y, loss)
	}
	return n.backwardStep(s, len(Y), total, opt)
}

// lossGrad writes the loss gradient of output row b against target y into
// dOut and returns the row's loss.
func (s *batchScratch) lossGrad(b, out int, y []float64, loss Loss) float64 {
	pred := s.outViews[b]
	loss.Grad(pred, y, s.dOut[b*out:(b+1)*out])
	return loss.Loss(pred, y)
}

// backwardStep is the half of a training step after the forward pass and the
// loss gradients: the layer-by-layer batched backward pass through the
// arena and, unless the mean loss total/rows is non-finite, one optimizer
// step per parameter vector. Gradient accumulation order matches the
// per-sample path element for element, so the two are bit-identical.
func (n *Network) backwardStep(s *batchScratch, rows int, total float64, opt Optimizer) (float64, error) {
	s.fwd = 0
	dA := s.dOut
	for li := len(n.layers) - 1; li >= 0; li-- {
		l := n.layers[li]
		m := rows * l.out
		dz := s.dz[li][:m]
		l.act.Derivative(s.z[li][:m], s.a[li][:m], dz)
		for i := range dz {
			dz[i] *= dA[i]
		}
		x := s.x0
		if li > 0 {
			x = s.a[li-1]
		}
		l.zeroGrads()
		paramGradRows(x, dz, l.gw, l.gb, s.idx, l.in, l.out, rows)
		if li > 0 {
			inputGradRows(l.w, dz, s.dx[li], s.idx, l.in, l.out, rows)
			dA = s.dx[li]
		}
	}

	scale := 1 / float64(rows)
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
