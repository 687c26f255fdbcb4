package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		cfg  Config
		rng  *rand.Rand
	}{
		{"zero inputs", Config{Inputs: 0, Layers: []LayerSpec{{Units: 1}}}, rng},
		{"no layers", Config{Inputs: 2}, rng},
		{"zero units", Config{Inputs: 2, Layers: []LayerSpec{{Units: 0}}}, rng},
		{"nil rng", Config{Inputs: 2, Layers: []LayerSpec{{Units: 1}}}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg, tt.rng); err == nil {
				t.Error("New succeeded, want error")
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{}, nil)
}

func TestShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := MustNew(Config{Inputs: 4, Layers: []LayerSpec{
		{Units: 8, Act: ReLU},
		{Units: 3, Act: Linear},
	}}, rng)
	if n.Inputs() != 4 || n.Outputs() != 3 {
		t.Fatalf("Inputs/Outputs = %d/%d", n.Inputs(), n.Outputs())
	}
	if got, want := n.NumParams(), 4*8+8+8*3+3; got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
	out := n.Forward([]float64{1, 0, -1, 0.5})
	if len(out) != 3 {
		t.Fatalf("Forward output width = %d", len(out))
	}
}

func TestPredictCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 1, Act: Linear}}}, rng)
	p1 := n.Predict([]float64{1, 2})
	p2 := n.Forward([]float64{-5, 7})
	if &p1[0] == &p2[0] {
		t.Error("Predict must return an independent copy")
	}
}

// TestGradientCheck verifies analytic gradients against central finite
// differences for each activation and loss combination.
func TestGradientCheck(t *testing.T) {
	combos := []struct {
		name string
		act  Activation
		loss Loss
	}{
		{"sigmoid+mse", Sigmoid, MSE},
		{"relu+mse", ReLU, MSE},
		{"tanh+mse", Tanh, MSE},
		{"linear+mse", Linear, MSE},
		{"sigmoid+bce", Sigmoid, BCE},
		{"linear+huber", Linear, Huber},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			n := MustNew(Config{Inputs: 3, Layers: []LayerSpec{
				{Units: 5, Act: c.act},
				{Units: 2, Act: c.act},
			}}, rng)
			x := []float64{0.3, -0.8, 0.5}
			y := []float64{0.2, 0.9}

			// analytic gradients
			for _, l := range n.layers {
				l.zeroGrads()
			}
			r := newRef(n)
			pred := r.forward(x)
			dOut := make([]float64, len(pred))
			c.loss.Grad(pred, y, dOut)
			r.backward(dOut)

			// numeric check on a sample of weights from each layer
			const eps = 1e-6
			lossAt := func() float64 { return c.loss.Loss(n.Forward(x), y) }
			for li, l := range n.layers {
				for _, wi := range []int{0, len(l.w) / 2, len(l.w) - 1} {
					orig := l.w[wi]
					l.w[wi] = orig + eps
					up := lossAt()
					l.w[wi] = orig - eps
					down := lossAt()
					l.w[wi] = orig
					numeric := (up - down) / (2 * eps)
					if diff := math.Abs(numeric - l.gw[wi]); diff > 1e-5 {
						t.Errorf("layer %d w[%d]: numeric %g analytic %g", li, wi, numeric, l.gw[wi])
					}
				}
				bi := len(l.b) - 1
				orig := l.b[bi]
				l.b[bi] = orig + eps
				up := lossAt()
				l.b[bi] = orig - eps
				down := lossAt()
				l.b[bi] = orig
				numeric := (up - down) / (2 * eps)
				if diff := math.Abs(numeric - l.gb[bi]); diff > 1e-5 {
					t.Errorf("layer %d b[%d]: numeric %g analytic %g", li, bi, numeric, l.gb[bi])
				}
			}
		})
	}
}

// TestLearnXOR: a single hidden layer trained with backprop must solve XOR —
// this is the ANN configuration the SPL filter uses.
func TestLearnXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{
		{Units: 8, Act: Tanh},
		{Units: 1, Act: Sigmoid},
	}}, rng)
	data := []Sample{
		{X: []float64{0, 0}, Y: []float64{0}},
		{X: []float64{0, 1}, Y: []float64{1}},
		{X: []float64{1, 0}, Y: []float64{1}},
		{X: []float64{1, 1}, Y: []float64{0}},
	}
	loss, err := n.Fit(data, 2000, 4, BCE, NewAdam(0.01), rng)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if loss > 0.1 {
		t.Fatalf("final loss %g, want < 0.1", loss)
	}
	for _, s := range data {
		p := n.Forward(s.X)[0]
		if math.Abs(p-s.Y[0]) > 0.3 {
			t.Errorf("xor(%v) = %g, want %g", s.X, p, s.Y[0])
		}
	}
}

// TestLearnRegression: a DNN with two hidden layers (the paper's optimizer
// configuration) fits a smooth function.
func TestLearnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := MustNew(Config{Inputs: 1, Layers: []LayerSpec{
		{Units: 16, Act: ReLU},
		{Units: 16, Act: ReLU},
		{Units: 1, Act: Linear},
	}}, rng)
	var data []Sample
	for i := 0; i < 128; i++ {
		x := rng.Float64()*2 - 1
		data = append(data, Sample{X: []float64{x}, Y: []float64{x * x}})
	}
	loss, err := n.Fit(data, 300, 16, MSE, NewAdam(0.005), rng)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if loss > 0.01 {
		t.Fatalf("final loss %g, want < 0.01", loss)
	}
}

func TestTrainBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 1}}}, rng)
	if _, err := n.TrainBatch(nil, MSE, &SGD{LR: 0.1}); err == nil {
		t.Error("empty batch should error")
	}
	bad := []Sample{{X: []float64{1}, Y: []float64{1}}}
	if _, err := n.TrainBatch(bad, MSE, &SGD{LR: 0.1}); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := n.Fit(nil, 1, 4, MSE, &SGD{LR: 0.1}, rng); err == nil {
		t.Error("Fit with no data should error")
	}
}

func TestOptimizers(t *testing.T) {
	// Each optimizer must reduce a simple quadratic loss.
	opts := map[string]Optimizer{
		"sgd":      &SGD{LR: 0.1},
		"momentum": &Momentum{LR: 0.05, Mu: 0.9},
		"adam":     NewAdam(0.05),
	}
	for name, opt := range opts {
		t.Run(name, func(t *testing.T) {
			params := []float64{5, -3}
			for i := 0; i < 200; i++ {
				grads := []float64{2 * params[0], 2 * params[1]}
				opt.Step("p", params, grads)
			}
			if math.Abs(params[0]) > 0.1 || math.Abs(params[1]) > 0.1 {
				t.Errorf("%s did not converge: %v", name, params)
			}
		})
	}
}

func TestAdamZeroValueDefaults(t *testing.T) {
	// The zero value picks the canonical 0.001/0.9/0.999/1e-8 defaults and
	// still makes monotonic-ish progress on a quadratic.
	opt := &Adam{}
	params := []float64{5}
	start := params[0]
	for i := 0; i < 500; i++ {
		opt.Step("p", params, []float64{2 * params[0]})
	}
	if !(params[0] < start && params[0] > 0) {
		t.Errorf("param = %g, want progress toward 0 from %g", params[0], start)
	}
	if opt.LR != 0.001 || opt.Beta1 != 0.9 || opt.Beta2 != 0.999 || opt.Eps != 1e-8 {
		t.Errorf("defaults not applied: %+v", opt)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := MustNew(Config{Inputs: 3, Layers: []LayerSpec{
		{Units: 4, Act: ReLU},
		{Units: 2, Act: Sigmoid},
	}}, rng)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	x := []float64{0.1, -0.2, 0.7}
	want := n.Predict(x)
	got := loaded.Predict(x)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("output %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"inputs":0,"layers":[]}`,
		`{"inputs":2,"layers":[{"in":3,"out":1,"activation":"relu","w":[1,1,1],"b":[0]}]}`, // in mismatch
		`{"inputs":2,"layers":[{"in":2,"out":1,"activation":"nope","w":[1,1],"b":[0]}]}`,   // bad act
		`{"inputs":2,"layers":[{"in":2,"out":1,"activation":"relu","w":[1],"b":[0]}]}`,     // bad w len
		`{"inputs":2,"layers":[{"in":2,"out":0,"activation":"relu","w":[],"b":[]}]}`,       // zero out
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d: Load succeeded, want error", i)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 2, Act: Linear}}}, rng)
	c := n.Clone()
	x := []float64{1, 1}
	before := c.Predict(x)
	// Train the original; the clone must not move.
	_, err := n.TrainBatch([]Sample{{X: x, Y: []float64{0, 0}}}, MSE, &SGD{LR: 0.5})
	if err != nil {
		t.Fatalf("TrainBatch: %v", err)
	}
	after := c.Predict(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("training the original changed the clone")
		}
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 2, Act: Linear}}}, rng)
	b := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 2, Act: Linear}}}, rng)
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatalf("CopyWeightsFrom: %v", err)
	}
	x := []float64{0.5, -0.5}
	pa, pb := a.Predict(x), b.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("weights not copied")
		}
	}
	c := MustNew(Config{Inputs: 3, Layers: []LayerSpec{{Units: 2}}}, rng)
	if err := c.CopyWeightsFrom(a); err == nil {
		t.Error("architecture mismatch should error")
	}
	d := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 3}}}, rng)
	if err := d.CopyWeightsFrom(a); err == nil {
		t.Error("layer shape mismatch should error")
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range []string{"sigmoid", "relu", "tanh", "linear"} {
		a, err := ActivationByName(name)
		if err != nil || a.Name() != name {
			t.Errorf("ActivationByName(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := ActivationByName("swish"); err == nil {
		t.Error("unknown activation should error")
	}
}

func TestLossByName(t *testing.T) {
	for _, name := range []string{"mse", "bce", "huber"} {
		l, err := LossByName(name)
		if err != nil || l.Name() != name {
			t.Errorf("LossByName(%q) = %v, %v", name, l, err)
		}
	}
	if _, err := LossByName("hinge"); err == nil {
		t.Error("unknown loss should error")
	}
}

func TestActivationValues(t *testing.T) {
	z := []float64{-2, 0, 2}
	out := make([]float64, 3)

	Sigmoid.Apply(z, out)
	if math.Abs(out[1]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %g", out[1])
	}
	ReLU.Apply(z, out)
	if out[0] != 0 || out[2] != 2 {
		t.Errorf("relu = %v", out)
	}
	Tanh.Apply(z, out)
	if math.Abs(out[1]) > 1e-12 || math.Abs(out[2]-math.Tanh(2)) > 1e-12 {
		t.Errorf("tanh = %v", out)
	}
	Linear.Apply(z, out)
	if out[0] != -2 || out[2] != 2 {
		t.Errorf("linear = %v", out)
	}
}

func TestHuberLossShape(t *testing.T) {
	pred := []float64{0, 0}
	// small error: quadratic; big error: linear
	small := Huber.Loss(pred, []float64{0.5, 0})
	big := Huber.Loss(pred, []float64{10, 0})
	if math.Abs(small-0.5*0.25/2) > 1e-12 {
		t.Errorf("huber small = %g", small)
	}
	if math.Abs(big-(10-0.5)/2) > 1e-12 {
		t.Errorf("huber big = %g", big)
	}
	grad := make([]float64, 2)
	Huber.Grad(pred, []float64{10, -10}, grad)
	if grad[0] != -0.5 || grad[1] != 0.5 {
		t.Errorf("huber grad = %v (clipped ±δ/n)", grad)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() []float64 {
		rng := rand.New(rand.NewSource(99))
		n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{
			{Units: 4, Act: Tanh}, {Units: 1, Act: Linear},
		}}, rng)
		data := []Sample{
			{X: []float64{0, 1}, Y: []float64{1}},
			{X: []float64{1, 0}, Y: []float64{-1}},
		}
		if _, err := n.Fit(data, 50, 2, MSE, NewAdam(0.01), rng); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		return n.Predict([]float64{0.5, 0.5})
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not deterministic under a fixed seed")
		}
	}
}

func TestLoadTruncatedNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := MustNew(Config{Inputs: 3, Layers: []LayerSpec{
		{Units: 4, Act: ReLU},
		{Units: 2, Act: Sigmoid},
	}}, rng)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full)-1; cut += 7 {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Load of %d/%d bytes succeeded, want error", cut, len(full))
		}
	}
}

func TestTrainBatchDivergenceGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := MustNew(Config{Inputs: 2, Layers: []LayerSpec{{Units: 2, Act: Linear}}}, rng)
	x := []float64{1, 1}
	before := n.Predict(x)

	_, err := n.TrainBatch([]Sample{{X: x, Y: []float64{math.NaN(), 0}}}, MSE, &SGD{LR: 0.1})
	if err == nil {
		t.Fatal("TrainBatch accepted a NaN target")
	}
	if !IsDivergence(err) {
		t.Fatalf("err = %v, want DivergenceError", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) || !math.IsNaN(de.Loss) {
		t.Errorf("DivergenceError.Loss = %v, want NaN", de)
	}
	// The poisoned update must not have been applied.
	after := n.Predict(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("weights changed by a diverged batch")
		}
		if math.IsNaN(after[i]) || math.IsInf(after[i], 0) {
			t.Fatal("non-finite values reached the weights")
		}
	}

	// Inf targets are caught the same way.
	if _, err := n.TrainBatch([]Sample{{X: x, Y: []float64{math.Inf(1), 0}}}, MSE, &SGD{LR: 0.1}); !IsDivergence(err) {
		t.Errorf("Inf target: err = %v, want DivergenceError", err)
	}
}
