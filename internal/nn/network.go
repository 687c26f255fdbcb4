// Package nn is a from-scratch feed-forward neural-network substrate for
// the Jarvis reproduction. It provides exactly what the paper's prototype
// takes from TensorFlow and a generic MLP: dense layers, element-wise
// activations, MSE/BCE/Huber losses, SGD/Momentum/Adam optimizers,
// mini-batch backpropagation training, and JSON model (de)serialization.
//
// The paper distinguishes an "ANN" (single hidden layer, trained by
// back-propagation — the SPL's benign-anomaly filter) from a "DNN" (multiple
// hidden layers, trained inside the RL loop — the Q-function approximator).
// Both are instances of Network.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// LayerSpec describes one dense layer.
type LayerSpec struct {
	// Units is the number of neurons in the layer.
	Units int
	// Act is the layer's activation (defaults to Sigmoid when nil).
	Act Activation
}

// Config describes a feed-forward network: the input width followed by one
// or more dense layers.
type Config struct {
	// Inputs is the width of the input vector.
	Inputs int
	// Layers lists the dense layers, hidden layers first, output layer
	// last.
	Layers []LayerSpec
}

// dense is one fully connected layer: z = W·x + b, a = act(z).
// W is row-major, out×in.
type dense struct {
	in, out int
	w, b    []float64
	act     Activation

	// gradient accumulators, allocated by the layer's first backward pass
	// (zeroGrads): a network that only runs forward never holds them
	gw, gb []float64

	// wKey/bKey are the optimizer state keys for this layer's parameters,
	// precomputed so the training hot path never formats strings.
	wKey, bKey string
}

// newDense builds layer i over weights w (out×in) and biases b, which it
// keeps. Every construction path (New, Clone, Load) goes through it.
func newDense(i, in, out int, act Activation, w, b []float64) *dense {
	for o := range b {
		// A -0 bias (only a hand-written model file can hold one) becomes
		// +0, so no kernel accumulator ever starts at -0 (see matmul.go).
		b[o] += 0
	}
	key := strconv.Itoa(i)
	return &dense{
		in: in, out: out, act: act, w: w, b: b,
		wKey: key + ".w", bKey: key + ".b",
	}
}

// zeroGrads readies the gradient accumulators for a backward pass,
// allocating them on the layer's first.
func (l *dense) zeroGrads() {
	if l.gw == nil {
		l.gw, l.gb = make([]float64, l.in*l.out), make([]float64, l.out)
		return
	}
	clear(l.gw)
	clear(l.gb)
}

func (l *dense) scaleGrads(s float64) {
	for i := range l.gw {
		l.gw[i] *= s
	}
	for i := range l.gb {
		l.gb[i] *= s
	}
}

// Network is a feed-forward neural network. It is NOT safe for concurrent
// use: forward/backward passes share internal buffers. Clone the network
// for concurrent readers.
type Network struct {
	inputs int
	layers []*dense

	// scratch is the lazily grown batch arena for ForwardBatch/TrainBatch
	// and single the one-row arena of Forward (see batch.go). Neither is
	// copied by Clone, and Fit drops scratch when it returns.
	scratch, single *batchScratch
}

// New builds a network from cfg with Xavier-initialized weights drawn from
// rng (which must be non-nil for reproducibility).
func New(cfg Config, rng *rand.Rand) (*Network, error) {
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("nn: invalid input width %d", cfg.Inputs)
	}
	if len(cfg.Layers) == 0 {
		return nil, errors.New("nn: network needs at least one layer")
	}
	if rng == nil {
		return nil, errors.New("nn: nil rng")
	}
	n := &Network{inputs: cfg.Inputs}
	in := cfg.Inputs
	for i, spec := range cfg.Layers {
		if spec.Units <= 0 {
			return nil, fmt.Errorf("nn: layer %d has %d units", i, spec.Units)
		}
		act := spec.Act
		if act == nil {
			act = Sigmoid
		}
		// Xavier/Glorot uniform initialization.
		w := make([]float64, in*spec.Units)
		limit := math.Sqrt(6 / float64(in+spec.Units))
		for j := range w {
			w[j] = (rng.Float64()*2 - 1) * limit
		}
		n.layers = append(n.layers, newDense(i, in, spec.Units, act, w, make([]float64, spec.Units)))
		in = spec.Units
	}
	return n, nil
}

// MustNew is New for statically valid configurations; it panics on error.
func MustNew(cfg Config, rng *rand.Rand) *Network {
	n, err := New(cfg, rng)
	if err != nil {
		panic("nn: MustNew: " + err.Error())
	}
	return n
}

// Inputs returns the input width.
func (n *Network) Inputs() int { return n.inputs }

// Outputs returns the output width.
func (n *Network) Outputs() int { return n.layers[len(n.layers)-1].out }

// Forward runs one forward pass over x, which must hold Inputs() values,
// and returns the output activations. It runs the batched kernels on one
// row, so its outputs equal the matching ForwardBatch row bit for bit. The
// returned slice is owned by the network and overwritten by the next call;
// copy it if you need to keep it.
func (n *Network) Forward(x []float64) []float64 {
	s := n.arena(&n.single, 1)
	n.forward(s, x, 1)
	return s.outViews[0]
}

// Predict is Forward returning a fresh copy of the outputs.
func (n *Network) Predict(x []float64) []float64 {
	out := n.Forward(x)
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// Sample is one training example.
type Sample struct {
	X, Y []float64
}

// DivergenceError reports that training produced a non-finite loss —
// exploding gradients or NaN targets. The update that observed it is NOT
// applied, so the network's weights stay finite; callers should reduce the
// learning rate, clip targets, or restore from a checkpoint.
type DivergenceError struct {
	// Loss is the offending (NaN or ±Inf) batch loss.
	Loss float64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("nn: training diverged: non-finite loss %v", e.Loss)
}

// IsDivergence reports whether err (or anything it wraps) is a
// DivergenceError.
func IsDivergence(err error) bool {
	var de *DivergenceError
	return errors.As(err, &de)
}

// isNonFinite reports whether v is NaN or ±Inf — the divergence-guard
// predicate shared by the training paths.
func isNonFinite(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}

// Fit trains for epochs passes over data in mini-batches of size batchSize,
// shuffling with rng each epoch. It returns the mean loss of the final
// epoch. A fitted network is done training: Fit drops the batch arena and
// the gradient accumulators when it returns, and a later training step
// allocates them again.
func (n *Network) Fit(data []Sample, epochs, batchSize int, loss Loss, opt Optimizer, rng *rand.Rand) (float64, error) {
	if len(data) == 0 {
		return 0, errors.New("nn: no training data")
	}
	defer func() {
		n.scratch = nil
		for _, l := range n.layers {
			l.gw, l.gb = nil, nil
		}
	}()
	if batchSize <= 0 {
		batchSize = 32
	}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	var epochLoss float64
	batch := make([]Sample, 0, batchSize)
	for e := 0; e < epochs; e++ {
		if rng != nil {
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		epochLoss = 0
		batches := 0
		for start := 0; start < len(idx); start += batchSize {
			end := start + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[start:end] {
				batch = append(batch, data[i])
			}
			l, err := n.TrainBatch(batch, loss, opt)
			if err != nil {
				return 0, err
			}
			epochLoss += l
			batches++
		}
		epochLoss /= float64(batches)
	}
	return epochLoss, nil
}

// Clone returns a deep copy of the network (weights only; optimizer state
// lives in the optimizer). Useful for DQN target networks and concurrent
// readers.
func (n *Network) Clone() *Network {
	out := &Network{inputs: n.inputs}
	for i, l := range n.layers {
		w, b := append([]float64(nil), l.w...), append([]float64(nil), l.b...)
		out.layers = append(out.layers, newDense(i, l.in, l.out, l.act, w, b))
	}
	return out
}

// CopyWeightsFrom copies src's weights into n. The architectures must
// match.
func (n *Network) CopyWeightsFrom(src *Network) error {
	if len(n.layers) != len(src.layers) || n.inputs != src.inputs {
		return errors.New("nn: architecture mismatch")
	}
	for i, l := range n.layers {
		sl := src.layers[i]
		if l.in != sl.in || l.out != sl.out {
			return fmt.Errorf("nn: layer %d shape mismatch", i)
		}
		copy(l.w, sl.w)
		copy(l.b, sl.b)
	}
	if n.scratch != nil {
		n.scratch.fwd = 0 // the arena's activations are stale now
	}
	return nil
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}
