package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"jarvis/internal/experiment"
	"jarvis/internal/nn"
	"jarvis/internal/rl"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/version"
)

// benchResult is one row of BENCH_core.json.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsTotal     float64 `json:"ms_total"`
}

// benchReport is the BENCH_core.json envelope. GeneratedAt and Revision
// make a directory of bench artifacts orderable: the trajectory can be
// sorted by wall clock and each point tied back to the exact source that
// produced it. Telemetry carries the process-wide metrics snapshot taken
// after the benchmarks ran — the kernel counters (rl.update.latency,
// rl.train.steps, experiment.*) that the instrumented packages
// accumulated while being measured, so a bench artifact records not just
// ns/op but how much work each kernel did.
type benchReport struct {
	GoVersion   string              `json:"go_version"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	GeneratedAt string              `json:"generated_at"`
	Revision    string              `json:"revision,omitempty"`
	Results     []benchResult       `json:"results"`
	Telemetry   *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// coreBenchmarks measures the batched compute core: the nn kernels, the
// replay sampler, the batched DQN update, and the end-to-end Table III
// experiment the perf work targets.
func coreBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"nn/ForwardBatch32", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net := nn.MustNew(nn.Config{Inputs: 40, Layers: []nn.LayerSpec{
				{Units: 64, Act: nn.ReLU}, {Units: 64, Act: nn.ReLU}, {Units: 42, Act: nn.Linear},
			}}, rng)
			xs := make([][]float64, 32)
			for i := range xs {
				xs[i] = make([]float64, 40)
				for j := range xs[i] {
					xs[i][j] = rng.Float64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.ForwardBatch(xs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"nn/TrainBatch64", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net := nn.MustNew(nn.Config{Inputs: 40, Layers: []nn.LayerSpec{
				{Units: 64, Act: nn.ReLU}, {Units: 64, Act: nn.ReLU}, {Units: 42, Act: nn.Linear},
			}}, rng)
			batch := make([]nn.Sample, 64)
			for i := range batch {
				x := make([]float64, 40)
				y := make([]float64, 42)
				for j := range x {
					x[j] = rng.Float64()
				}
				batch[i] = nn.Sample{X: x, Y: y}
			}
			opt := nn.NewAdam(0.001)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.TrainBatch(batch, nn.Huber, opt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"rl/ReplaySampleInto64", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			r := rl.NewReplay(4096)
			for i := 0; i < 4096; i++ {
				r.Add(rl.Experience{T: i})
			}
			dst := make([]rl.Experience, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = r.SampleInto(dst, 64, rng)
			}
		}},
		{"trace/SpanDisabled", func(b *testing.B) {
			// The cost every untraced request pays: a sampler check that
			// returns nil, and nil-safe method calls on the way down.
			tr := trace.New(8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := tr.Start("bench.op")
				child := sp.Child("bench.child")
				child.AnnotateInt("i", int64(i))
				child.End()
				sp.End()
			}
		}},
		{"trace/SpanTreeSampled", func(b *testing.B) {
			// The cost a sampled request pays: a three-span tree with one
			// annotation, completed into the ring.
			tr := trace.New(8)
			tr.SetSampleEvery(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := tr.Start("bench.op")
				child := sp.Child("bench.select")
				child.AnnotateInt("i", int64(i))
				child.End()
				w := sp.Child("bench.append")
				w.End()
				sp.End()
			}
		}},
		{"experiment/Table3Quick", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiment.Table3(experiment.Table3Config{Seed: int64(i), LearningDays: 5})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 8 {
					b.Fatal("bad table")
				}
			}
		}},
		{"experiment/Table2Quick", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiment.Table2(experiment.Table2Config{Seed: int64(i), LearningDays: 3})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 6 {
					b.Fatal("bad table")
				}
			}
		}},
	}
}

// runBench measures the compute core with testing.Benchmark and writes
// BENCH_core.json next to the working directory.
func runBench(path string, out *os.File) error {
	report := benchReport{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Revision:    version.Revision(),
	}
	for _, bench := range coreBenchmarks() {
		r := testing.Benchmark(bench.fn)
		row := benchResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			MsTotal:     float64(r.T.Nanoseconds()) / 1e6,
		}
		report.Results = append(report.Results, row)
		fmt.Fprintf(out, "%-28s %12d ns/op %10d B/op %8d allocs/op\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}
	snap := telemetry.Default.Snapshot()
	report.Telemetry = &snap
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
