package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// modelJSON is the serialized form of a Network.
type modelJSON struct {
	Inputs int         `json:"inputs"`
	Layers []layerJSON `json:"layers"`
}

type layerJSON struct {
	In         int       `json:"in"`
	Out        int       `json:"out"`
	Activation string    `json:"activation"`
	W          []float64 `json:"w"`
	B          []float64 `json:"b"`
}

// Save writes the network (architecture + weights) as JSON.
func (n *Network) Save(w io.Writer) error {
	m := modelJSON{Inputs: n.inputs}
	for _, l := range n.layers {
		m.Layers = append(m.Layers, layerJSON{
			In: l.in, Out: l.out,
			Activation: l.act.Name(),
			W:          l.w,
			B:          l.b,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reads a network saved with Save.
func Load(r io.Reader) (*Network, error) {
	var m modelJSON
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if m.Inputs <= 0 || len(m.Layers) == 0 {
		return nil, fmt.Errorf("nn: load: malformed model (inputs=%d, layers=%d)", m.Inputs, len(m.Layers))
	}
	n := &Network{inputs: m.Inputs}
	in := m.Inputs
	for i, lj := range m.Layers {
		if lj.In != in {
			return nil, fmt.Errorf("nn: load: layer %d input width %d, want %d", i, lj.In, in)
		}
		if lj.Out <= 0 || len(lj.W) != lj.In*lj.Out || len(lj.B) != lj.Out {
			return nil, fmt.Errorf("nn: load: layer %d has inconsistent shapes", i)
		}
		act, err := ActivationByName(lj.Activation)
		if err != nil {
			return nil, err
		}
		n.layers = append(n.layers, newDense(i, lj.In, lj.Out, act, lj.W, lj.B))
		in = lj.Out
	}
	return n, nil
}
