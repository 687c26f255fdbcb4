package nn

import (
	"math"
	"math/rand"
	"testing"
)

func randomBatch(rng *rand.Rand, n, in, out int) []Sample {
	batch := make([]Sample, n)
	for i := range batch {
		x := make([]float64, in)
		y := make([]float64, out)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		for j := range y {
			y[j] = rng.Float64()
		}
		batch[i] = Sample{X: x, Y: y}
	}
	return batch
}

// firstDiff returns the first index where a and b differ in any bit, or -1.
// Stricter than ==: it tells -0 from +0.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sparseBatch draws n input rows shaped like the DQN's one-hot features:
// each value is 0, -0 or 1 with most of them zero, and row 0 is all zero.
func sparseBatch(rng *rand.Rand, n, in, out int) []Sample {
	batch := randomBatch(rng, n, in, out)
	for b, sm := range batch {
		for j := range sm.X {
			switch r := rng.Intn(8); {
			case b == 0 || r < 5:
				sm.X[j] = 0
			case r == 5:
				sm.X[j] = math.Copysign(0, -1)
			default:
				sm.X[j] = 1
			}
		}
	}
	return batch
}

// killUnits sets a third of every hidden ReLU layer's biases to -4, so
// those units are dead for the test inputs and their deltas exact zeros.
func killUnits(n *Network) {
	for _, l := range n.layers {
		if l.act != ReLU {
			continue
		}
		for o := 0; o < l.out; o += 3 {
			l.b[o] = -4
		}
	}
}

// TestBatchedTrainingParityGolden trains two identically seeded networks —
// one with the naive per-sample reference, one with the batched engine —
// for many steps and demands the losses, weights and outputs stay
// bit-identical: the kernels keep every element's summation order and skip
// only exact-zero terms. The sparse cases feed what the deep-Q learn step
// does: one-hot rows with ±0 entries, an all-zero row, dead ReLU units,
// and masked targets that equal the prediction except at one output, so
// all other output deltas are exact zeros. The masked case trains like
// DQN.Update, from the activations its own ForwardBatch left behind.
func TestBatchedTrainingParityGolden(t *testing.T) {
	cfg := Config{Inputs: 7, Layers: []LayerSpec{
		{Units: 16, Act: ReLU},
		{Units: 9, Act: Tanh},
		{Units: 4, Act: Linear},
	}}
	dqnCfg := Config{Inputs: 12, Layers: []LayerSpec{
		{Units: 16, Act: ReLU},
		{Units: 13, Act: ReLU},
		{Units: 6, Act: Linear},
	}}
	for _, tc := range []struct {
		name   string
		cfg    Config
		loss   Loss
		opt    func() Optimizer
		sparse bool // one-hot inputs, an all-zero row, dead units
		masked bool // DQN-style masked targets through TrainForwarded
	}{
		{"mse+sgd", cfg, MSE, func() Optimizer { return &SGD{LR: 0.05} }, false, false},
		{"huber+adam", cfg, Huber, func() Optimizer { return NewAdam(0.01) }, false, false},
		{"sparse+mse+momentum", dqnCfg, MSE, func() Optimizer { return &Momentum{LR: 0.02, Mu: 0.9} }, true, false},
		{"sparse+masked+huber+adam", dqnCfg, Huber, func() Optimizer { return NewAdam(0.01) }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := MustNew(tc.cfg, rand.New(rand.NewSource(42)))
			bat := MustNew(tc.cfg, rand.New(rand.NewSource(42)))
			if tc.sparse {
				killUnits(ref)
				killUnits(bat)
			}
			optRef, optBat := tc.opt(), tc.opt()
			in, out := tc.cfg.Inputs, tc.cfg.Layers[len(tc.cfg.Layers)-1].Units

			dataRng := rand.New(rand.NewSource(99))
			for step := 0; step < 25; step++ {
				rows := 1 + step%13
				var batch []Sample
				if tc.sparse {
					batch = sparseBatch(dataRng, rows, in, out)
				} else {
					batch = randomBatch(dataRng, rows, in, out)
				}
				var lRef, lBat float64
				var errRef, errBat error
				if tc.masked {
					// Each side's targets are its own predictions with one
					// output moved; the final weight check catches any
					// difference between the two predictions.
					r := newRef(ref)
					X, Y := make([][]float64, rows), make([][]float64, rows)
					masks := make([]int, rows)
					for b := range batch {
						X[b] = batch[b].X
						masks[b] = dataRng.Intn(out)
						batch[b].Y = append([]float64(nil), r.forward(X[b])...)
						batch[b].Y[masks[b]] = dataRng.NormFloat64()
					}
					preds, err := bat.ForwardBatch(X)
					if err != nil {
						t.Fatal(err)
					}
					for b := range preds {
						Y[b] = append([]float64(nil), preds[b]...)
						Y[b][masks[b]] = batch[b].Y[masks[b]]
					}
					lRef, errRef = trainPerSampleReference(ref, batch, tc.loss, optRef)
					lBat, errBat = bat.TrainForwarded(Y, tc.loss, optBat)
				} else {
					lRef, errRef = trainPerSampleReference(ref, batch, tc.loss, optRef)
					lBat, errBat = bat.TrainBatch(batch, tc.loss, optBat)
				}
				if errRef != nil || errBat != nil {
					t.Fatalf("step %d: unexpected errors %v / %v", step, errRef, errBat)
				}
				if firstDiff([]float64{lRef}, []float64{lBat}) >= 0 {
					t.Fatalf("step %d: loss diverged: per-sample %.17g batched %.17g", step, lRef, lBat)
				}
			}
			for li := range ref.layers {
				if i := firstDiff(ref.layers[li].w, bat.layers[li].w); i >= 0 {
					t.Fatalf("layer %d w[%d]: per-sample %.17g batched %.17g",
						li, i, ref.layers[li].w[i], bat.layers[li].w[i])
				}
				if i := firstDiff(ref.layers[li].b, bat.layers[li].b); i >= 0 {
					t.Fatalf("layer %d b[%d]: per-sample %.17g batched %.17g",
						li, i, ref.layers[li].b[i], bat.layers[li].b[i])
				}
			}
			x := sparseBatch(dataRng, 2, in, out)[1].X
			if i := firstDiff(newRef(ref).forward(x), bat.Forward(x)); i >= 0 {
				t.Fatalf("prediction[%d] diverged", i)
			}
		})
	}
}

// TestForwardBatchMatchesForward checks each batched output row equals both
// the single-row Forward and the naive reference bit for bit, on dense
// rows, one-hot rows with ±0 entries, an all-zero row, and ReLU layers with
// dead units.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name   string
		layers []LayerSpec
		sparse bool
	}{
		{"dense+sigmoid", []LayerSpec{{Units: 11, Act: Sigmoid}, {Units: 3, Act: Linear}}, false},
		{"sparse+relu", []LayerSpec{{Units: 11, Act: ReLU}, {Units: 9, Act: ReLU}, {Units: 3, Act: Linear}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := MustNew(Config{Inputs: 5, Layers: tc.layers}, rng)
			killUnits(n)
			batch := randomBatch(rng, 17, 5, 3)
			if tc.sparse {
				batch = sparseBatch(rng, 17, 5, 3)
			}
			X := make([][]float64, len(batch))
			for i, sm := range batch {
				X[i] = sm.X
			}
			got, err := n.ForwardBatch(X)
			if err != nil {
				t.Fatal(err)
			}
			// Forward and the reference use their own buffers, so the
			// batched rows stay valid across them.
			r := newRef(n)
			for i, x := range X {
				if j := firstDiff(got[i], n.Forward(x)); j >= 0 {
					t.Fatalf("row %d output %d: batched %.17g, Forward %.17g", i, j, got[i][j], n.Forward(x)[j])
				}
				if j := firstDiff(got[i], r.forward(x)); j >= 0 {
					t.Fatalf("row %d output %d: batched %.17g, reference %.17g", i, j, got[i][j], r.forward(x)[j])
				}
			}
		})
	}
}

// TestTrainForwardedNeedsItsForwardPass: TrainForwarded trains only from a
// forward pass of the same row count that no training step or weight copy
// has made stale.
func TestTrainForwardedNeedsItsForwardPass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := MustNew(Config{Inputs: 3, Layers: []LayerSpec{{Units: 2, Act: Linear}}}, rng)
	opt := &SGD{LR: 0.1}
	Y := [][]float64{{0, 1}, {1, 0}}
	if _, err := n.TrainForwarded(Y, MSE, opt); err == nil {
		t.Error("TrainForwarded before any ForwardBatch must error")
	}
	X := [][]float64{{1, 0, 2}, {0, 3, 0}}
	if _, err := n.ForwardBatch(X); err != nil {
		t.Fatal(err)
	}
	if _, err := n.TrainForwarded(Y[:1], MSE, opt); err == nil {
		t.Error("a row count other than the forward pass's must error")
	}
	if _, err := n.TrainForwarded([][]float64{{0}, {1}}, MSE, opt); err == nil {
		t.Error("a short target row must error")
	}
	if _, err := n.TrainForwarded(Y, MSE, opt); err != nil {
		t.Fatalf("TrainForwarded after ForwardBatch: %v", err)
	}
	if _, err := n.TrainForwarded(Y, MSE, opt); err == nil {
		t.Error("a second step on the same forward pass must error: the weights moved")
	}
	if _, err := n.ForwardBatch(X); err != nil {
		t.Fatal(err)
	}
	if err := n.CopyWeightsFrom(n.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.TrainForwarded(Y, MSE, opt); err == nil {
		t.Error("TrainForwarded after CopyWeightsFrom must error")
	}
}

func TestForwardBatchArityError(t *testing.T) {
	n := MustNew(Config{Inputs: 3, Layers: []LayerSpec{{Units: 2}}}, rand.New(rand.NewSource(1)))
	if _, err := n.ForwardBatch(nil); err == nil {
		t.Error("empty batch must error")
	}
	if _, err := n.ForwardBatch([][]float64{{1, 2}}); err == nil {
		t.Error("short row must error")
	}
	if _, err := n.TrainBatch([]Sample{{X: []float64{1}, Y: []float64{1, 2}}}, MSE, &SGD{LR: 0.1}); err == nil {
		t.Error("mismatched sample must error")
	}
}

// TestTrainBatchZeroAllocSteadyState: after the first call grows the arena
// and warms optimizer state, TrainBatch must not allocate.
func TestTrainBatchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := MustNew(Config{Inputs: 12, Layers: []LayerSpec{
		{Units: 24, Act: ReLU},
		{Units: 6, Act: Linear},
	}}, rng)
	batch := randomBatch(rng, 32, 12, 6)
	opt := NewAdam(0.001)
	if _, err := n.TrainBatch(batch, Huber, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := n.TrainBatch(batch, Huber, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("TrainBatch steady state allocates %.1f objects per call, want 0", allocs)
	}
}

// TestForwardBatchZeroAllocSteadyState: batched inference through the warm
// arena must not allocate.
func TestForwardBatchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := MustNew(Config{Inputs: 8, Layers: []LayerSpec{
		{Units: 16, Act: Sigmoid},
		{Units: 4, Act: Linear},
	}}, rng)
	X := make([][]float64, 64)
	for i := range X {
		X[i] = make([]float64, 8)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	if _, err := n.ForwardBatch(X); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := n.ForwardBatch(X); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ForwardBatch steady state allocates %.1f objects per call, want 0", allocs)
	}
}

// TestTrainBatchDivergenceGuardBatched: NaN targets must surface a
// DivergenceError and leave weights untouched, exactly like the per-sample
// path did.
func TestTrainBatchDivergenceGuardBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 2, Act: Linear}}}, rng)
	before := append([]float64(nil), n.layers[0].w...)
	_, err := n.TrainBatch([]Sample{{X: []float64{1, 1}, Y: []float64{math.NaN(), 0}}}, MSE, &SGD{LR: 0.1})
	if !IsDivergence(err) {
		t.Fatalf("want DivergenceError, got %v", err)
	}
	for i, w := range n.layers[0].w {
		if w != before[i] {
			t.Fatal("weights mutated by diverged update")
		}
	}
}
