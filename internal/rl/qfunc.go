package rl

import (
	"fmt"
	"math/rand"
	"time"

	"jarvis/internal/env"
	"jarvis/internal/nn"
)

// QFunc estimates mini-action quality values for a (state, instance) pair
// and learns from replayed experience. Implementations: TableQ (exact,
// small environments) and DQN (deep Q network, Section V-A6/7).
type QFunc interface {
	// Q returns one quality value per mini-action. The returned slice is
	// owned by the QFunc and overwritten on the next call.
	Q(s env.State, t int) []float64
	// QTarget returns the bootstrap-target quality values — a lagged copy
	// for the DQN (the standard target-network stabilizer), identical to
	// Q for the tabular backend.
	QTarget(s env.State, t int) []float64
	// Update learns from a mini-batch: every executed mini-action's value
	// moves toward target(exp). It returns the training loss.
	Update(batch []Experience, targets []float64) (float64, error)
}

// BatchQ is the optional batched surface a QFunc may implement: one forward
// pass over many (state, instance) pairs instead of per-pair calls. The
// returned rows alias network-owned scratch — row i is the Q vector of
// (states[i], ts[i]) — and stay valid only until the next batched call on
// the same underlying network. The DQN implements it; the tabular backend
// gains nothing from batching and deliberately does not.
type BatchQ interface {
	// QBatch evaluates the online Q values for every pair.
	QBatch(states []env.State, ts []int) ([][]float64, error)
	// QTargetBatch evaluates the lagged target Q values for every pair.
	QTargetBatch(states []env.State, ts []int) ([][]float64, error)
}

// TimeBucketed is the optional coarse-time surface a QFunc may implement:
// backends whose values depend on the time instance only through a bucket
// index report their resolution here, so the policy compiler
// (internal/compiled) can enumerate one representative instance per bucket
// instead of every minute of the day. Backends without it (the DQN, whose
// features encode the exact minute) compile per instance.
type TimeBucketed interface {
	// TimeBuckets returns the bucket count and the episode length in
	// instances; instance t falls into bucket t*buckets/instances
	// (clamped to the last bucket).
	TimeBuckets() (buckets, instances int)
}

// RowIterator is the optional sparse-enumeration surface a QFunc may
// implement: backends storing explicit rows report every populated
// (state-key, bucket) pair, so the policy compiler evaluates only those
// and defaults the rest to the provable zero-row decision (the safe NoOp).
type RowIterator interface {
	Rows(fn func(stateKey uint64, bucket int))
}

// TableQ is an exact tabular Q function over (state-key, instance bucket,
// mini-action). It is exact for the small Table I environment and serves
// as the no-DNN ablation baseline.
type TableQ struct {
	e     *env.Environment
	minis *MiniActions
	// Alpha is the tabular learning rate α of the temporal-difference
	// update (Section II-B).
	Alpha float64
	// buckets folds time instances together to keep the table small;
	// 1 bucket = time-independent.
	buckets int
	n       int
	q       map[tableKey][]float64
	out     []float64
}

type tableKey struct {
	s uint64
	b int
}

// NewTableQ builds a tabular Q function with the given time-bucket count
// (minimum 1) for episodes of n instances.
func NewTableQ(e *env.Environment, n, buckets int, alpha float64) *TableQ {
	if buckets < 1 {
		buckets = 1
	}
	if alpha <= 0 {
		alpha = 0.1
	}
	m := NewMiniActions(e)
	return &TableQ{
		e: e, minis: m, Alpha: alpha,
		buckets: buckets, n: n,
		q:   make(map[tableKey][]float64),
		out: make([]float64, m.Total()),
	}
}

func (t *TableQ) bucket(inst int) int {
	if t.n <= 0 {
		return 0
	}
	b := inst * t.buckets / t.n
	if b >= t.buckets {
		b = t.buckets - 1
	}
	return b
}

func (t *TableQ) row(s env.State, inst int) []float64 {
	key := tableKey{s: t.e.StateKey(s), b: t.bucket(inst)}
	row, ok := t.q[key]
	if !ok {
		row = make([]float64, t.minis.Total())
		t.q[key] = row
	}
	return row
}

// QTarget implements QFunc; the tabular backend has no lag.
func (t *TableQ) QTarget(s env.State, inst int) []float64 { return t.Q(s, inst) }

// Q implements QFunc. Reading an unseen (state, bucket) returns zeros
// without populating the table.
func (t *TableQ) Q(s env.State, inst int) []float64 {
	key := tableKey{s: t.e.StateKey(s), b: t.bucket(inst)}
	row, ok := t.q[key]
	if !ok {
		for i := range t.out {
			t.out[i] = 0
		}
		return t.out
	}
	copy(t.out, row)
	return t.out
}

// Update implements QFunc using the temporal-difference rule
// Q ← Q + α(target − Q).
func (t *TableQ) Update(batch []Experience, targets []float64) (float64, error) {
	if !mUpdateLatencyTable.Enabled() {
		return t.update(batch, targets)
	}
	t0 := time.Now()
	loss, err := t.update(batch, targets)
	mUpdateLatencyTable.Observe(time.Since(t0))
	return loss, err
}

func (t *TableQ) update(batch []Experience, targets []float64) (float64, error) {
	if len(batch) != len(targets) {
		return 0, fmt.Errorf("rl: %d experiences but %d targets", len(batch), len(targets))
	}
	var loss float64
	for i, exp := range batch {
		row := t.row(exp.S, exp.T)
		for _, mi := range exp.Minis {
			d := targets[i] - row[mi]
			row[mi] += t.Alpha * d
			loss += d * d
		}
	}
	return loss / float64(len(batch)), nil
}

// Size returns the number of populated table rows.
func (t *TableQ) Size() int { return len(t.q) }

// TimeBuckets implements TimeBucketed: tabular values depend on time only
// through the bucket fold, so the policy compiler enumerates buckets.
func (t *TableQ) TimeBuckets() (buckets, instances int) { return t.buckets, t.n }

// Rows implements RowIterator, visiting every populated (state-key, bucket)
// pair in arbitrary order. Unpopulated rows read as all zeros, for which
// the greedy composition provably yields the NoOp with value 0.
func (t *TableQ) Rows(fn func(stateKey uint64, bucket int)) {
	for k := range t.q {
		fn(k.s, k.b)
	}
}

var _ QFunc = (*TableQ)(nil)
var _ TimeBucketed = (*TableQ)(nil)
var _ RowIterator = (*TableQ)(nil)

// DQNConfig parameterizes the deep Q network. The paper's prototype uses
// two hidden layers and learning rate 0.001 (Section V-A6).
type DQNConfig struct {
	// Hidden lists hidden-layer widths (default [64, 64]).
	Hidden []int
	// LR is the Adam learning rate (default 0.001).
	LR float64
	// TargetSync copies the online network into the lagged target network
	// every this many Update calls (default 64; 1 disables lagging).
	TargetSync int
}

// DQN approximates Q with a feed-forward network whose output head has one
// unit per mini-action (the action-space-explosion fix of Section V-A7).
type DQN struct {
	feat    *Features
	minis   *MiniActions
	net     *nn.Network
	target  *nn.Network
	opt     *nn.Adam
	sync    int
	updates int

	// Batched scratch, grown on demand by ensureBatch and reused for the
	// DQN's lifetime: xback/yback are flat rows×dim / rows×minis planes and
	// xrows/yrows row views into them, so Update performs zero
	// steady-state allocations.
	xback []float64
	yback []float64
	xrows [][]float64
	yrows [][]float64
	xone  []float64 // single-pair encode scratch for Q/QTarget
}

var _ QFunc = (*DQN)(nil)
var _ BatchQ = (*DQN)(nil)

// NewDQN builds the network for episodes of n instances.
func NewDQN(e *env.Environment, n int, cfg DQNConfig, rng *rand.Rand) (*DQN, error) {
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = []int{64, 64}
	}
	lr := cfg.LR
	if lr <= 0 {
		lr = 0.001
	}
	feat := NewFeatures(e, n)
	minis := NewMiniActions(e)
	specs := make([]nn.LayerSpec, 0, len(hidden)+1)
	for _, h := range hidden {
		specs = append(specs, nn.LayerSpec{Units: h, Act: nn.ReLU})
	}
	specs = append(specs, nn.LayerSpec{Units: minis.Total(), Act: nn.Linear})
	net, err := nn.New(nn.Config{Inputs: feat.Dim(), Layers: specs}, rng)
	if err != nil {
		return nil, fmt.Errorf("rl: dqn: %w", err)
	}
	syncEvery := cfg.TargetSync
	if syncEvery <= 0 {
		syncEvery = 64
	}
	return &DQN{
		feat: feat, minis: minis,
		net: net, target: net.Clone(),
		opt: nn.NewAdam(lr), sync: syncEvery,
	}, nil
}

// encodeOne encodes a single pair into a reused scratch row, which either
// network's Forward reads.
func (d *DQN) encodeOne(s env.State, t int) []float64 {
	if d.xone == nil {
		d.xone = make([]float64, d.feat.Dim())
	}
	return d.feat.EncodeInto(d.xone, s, t)
}

// Q implements QFunc.
func (d *DQN) Q(s env.State, t int) []float64 {
	return d.net.Forward(d.encodeOne(s, t))
}

// QTarget implements QFunc using the lagged target network.
func (d *DQN) QTarget(s env.State, t int) []float64 {
	return d.target.Forward(d.encodeOne(s, t))
}

// ensureBatch sizes the reused batch scratch for n rows. Row views keep
// their three-index caps so a downstream append can never bleed into the
// next row.
func (d *DQN) ensureBatch(n int) {
	if n <= cap(d.xrows) {
		d.xrows, d.yrows = d.xrows[:n], d.yrows[:n]
		return
	}
	dim, out := d.feat.Dim(), d.minis.Total()
	d.xback = make([]float64, n*dim)
	d.yback = make([]float64, n*out)
	d.xrows = make([][]float64, n)
	d.yrows = make([][]float64, n)
	for i := 0; i < n; i++ {
		d.xrows[i] = d.xback[i*dim : (i+1)*dim : (i+1)*dim]
		d.yrows[i] = d.yback[i*out : (i+1)*out : (i+1)*out]
	}
}

// qBatch encodes every pair into the reused feature rows and runs one
// batched forward pass through net.
func (d *DQN) qBatch(net *nn.Network, states []env.State, ts []int) ([][]float64, error) {
	if len(states) != len(ts) {
		return nil, fmt.Errorf("rl: %d states but %d instances", len(states), len(ts))
	}
	if len(states) == 0 {
		return nil, nil
	}
	d.ensureBatch(len(states))
	for i, s := range states {
		d.feat.EncodeInto(d.xrows[i], s, ts[i])
	}
	return net.ForwardBatch(d.xrows)
}

// QBatch implements BatchQ on the online network.
func (d *DQN) QBatch(states []env.State, ts []int) ([][]float64, error) {
	return d.qBatch(d.net, states, ts)
}

// QTargetBatch implements BatchQ on the lagged target network. Because the
// online and target networks own separate scratch arenas, rows from a
// QBatch call over the same pairs stay valid across this call.
func (d *DQN) QTargetBatch(states []env.State, ts []int) ([][]float64, error) {
	return d.qBatch(d.target, states, ts)
}

// Update implements QFunc: for each experience, the target vector equals
// the current prediction except at the executed mini-action indices, which
// move to the supplied target — the standard masked DQN regression. The
// predictions come from one batched forward pass, and the regression
// trains from that same pass (nn.TrainForwarded), so a warm Update runs
// the forward pass once, allocates nothing, and its results are
// bit-identical to the per-sample formulation.
//
// The latency observation is deliberately outside the measured body: when
// telemetry is disabled the wrapper reduces to one atomic load.
// TestDQNUpdateInstrumentationOverhead pins the instrumented path to 0
// allocs/op; BenchmarkDQNUpdateTelemetry pairs the two for the ≤ 3% ns/op
// budget.
func (d *DQN) Update(batch []Experience, targets []float64) (float64, error) {
	if !mUpdateLatencyDQN.Enabled() {
		return d.update(batch, targets)
	}
	t0 := time.Now()
	loss, err := d.update(batch, targets)
	mUpdateLatencyDQN.Observe(time.Since(t0))
	return loss, err
}

func (d *DQN) update(batch []Experience, targets []float64) (float64, error) {
	if len(batch) != len(targets) {
		return 0, fmt.Errorf("rl: %d experiences but %d targets", len(batch), len(targets))
	}
	if len(batch) == 0 {
		return 0, fmt.Errorf("rl: empty update batch")
	}
	d.ensureBatch(len(batch))
	for i, exp := range batch {
		d.feat.EncodeInto(d.xrows[i], exp.S, exp.T)
	}
	preds, err := d.net.ForwardBatch(d.xrows)
	if err != nil {
		return 0, fmt.Errorf("rl: dqn update: %w", err)
	}
	for i, y := range d.yrows {
		copy(y, preds[i])
		for _, mi := range batch[i].Minis {
			y[mi] = targets[i]
		}
	}
	loss, err := d.net.TrainForwarded(d.yrows, nn.Huber, d.opt)
	if err != nil {
		return 0, fmt.Errorf("rl: dqn update: %w", err)
	}
	d.updates++
	if d.updates%d.sync == 0 {
		if err := d.target.CopyWeightsFrom(d.net); err != nil {
			return 0, fmt.Errorf("rl: dqn target sync: %w", err)
		}
	}
	return loss, nil
}

// Net exposes the underlying network (for persistence).
func (d *DQN) Net() *nn.Network { return d.net }
