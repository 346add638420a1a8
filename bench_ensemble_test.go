package prodigy

// Cascade-ensemble benchmarks (DESIGN.md §16): the cascade's perf claim
// is that on a mostly-normal stream the cheap pre-filter clears the bulk
// and only the suspicious tail pays for the expensive fleet. Three
// closed-loop benchmarks pin it down — the cascade, the same fleet
// forced to score every row (pre-filter disabled), and the solo VAE the
// paper deploys — all scoring the same ≥95%-normal stream. The
// BENCH_ensemble.json emitter snapshots them plus the observed
// pre-filter pass rate and the fused-vs-solo F1/AUC table, and enforces
// the PR's acceptance bars: cascade ≥3× full-fleet throughput, fused
// detection quality within 0.01 of solo.

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/experiments"
	"prodigy/internal/mat"
	"prodigy/internal/nn"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

const (
	ensBenchFeatures   = 24
	ensBenchStreamRows = 2048
	// One anomaly per ensBenchAnomEvery rows keeps the benchmark stream
	// ~97% normal — the regime the cascade is built for, and the one the
	// ≥3× claim is stated over.
	ensBenchAnomEvery = 33
)

// ensBenchDataset builds the synthetic 96×24 training campaign shared by
// all three scoring benchmarks (same shape as the serving benchmarks'
// model: tiny but through the full select/scale/fit pipeline).
func ensBenchDataset() *pipeline.Dataset {
	const samples = 96
	rng := rand.New(rand.NewSource(41))
	names := make([]string, ensBenchFeatures)
	for i := range names {
		names[i] = "ens_f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	x := mat.New(samples, ensBenchFeatures)
	meta := make([]pipeline.SampleMeta, samples)
	for i := 0; i < samples; i++ {
		label := pipeline.Healthy
		if i%8 == 7 {
			label = pipeline.Anomalous
		}
		for j := 0; j < ensBenchFeatures; j++ {
			v := rng.NormFloat64()
			if label == pipeline.Anomalous {
				v += 4
			}
			x.Set(i, j, v)
		}
		meta[i] = pipeline.SampleMeta{JobID: int64(i), Label: label}
	}
	return &pipeline.Dataset{FeatureNames: names, X: x, Meta: meta}
}

// ensBenchStream builds the scored stream: ensBenchStreamRows full-width
// rows, ~97% drawn from the healthy distribution and the rest shifted.
func ensBenchStream() *mat.Matrix {
	rng := rand.New(rand.NewSource(43))
	x := mat.New(ensBenchStreamRows, ensBenchFeatures)
	for i := 0; i < ensBenchStreamRows; i++ {
		shift := 0.0
		if i%ensBenchAnomEvery == ensBenchAnomEvery-1 {
			shift = 4
		}
		for j := 0; j < ensBenchFeatures; j++ {
			x.Set(i, j, rng.NormFloat64()+shift)
		}
	}
	return x
}

// ensBenchCoreConfig is the shared pipeline config. The fleet members
// are sized toward the paper's deployed widths (hidden layers around
// 64–128 at the selected dimensionality) rather than toy ones: the
// cascade's win is the asymmetry between the pre-filter and the fleet,
// so shrinking the fleet to keep a benchmark tidy would understate the
// production regime the claim is about. Epochs stay minimal — training
// happens once, inference cost is what's measured.
func ensBenchCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{HiddenDims: []int{128, 64}, LatentDim: 16, Activation: "tanh",
		LearningRate: 1e-3, BatchSize: 32, Epochs: 4, Seed: 11}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 20, ThresholdPercentile: 95, ScalerKind: "minmax"}
	return cfg
}

// ensBenchUSAD mirrors the VAE's scale for the USAD fleet member.
func ensBenchUSAD(kind string, inputDim int) (pipeline.Model, error) {
	if kind != "usad" {
		return nil, nil
	}
	m, err := pipeline.NewUSADModel(usad.Config{InputDim: inputDim, HiddenSize: 128,
		LatentDim: 16, BatchSize: 32, Epochs: 4, WarmupEpochs: 2,
		LR: 1e-3, Alpha: 0.5, Beta: 0.5, Seed: 11})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// The three deployments under benchmark, trained once and shared: the
// emitter runs each benchmark through testing.Benchmark several times
// and retraining a VAE+USAD+LOF fleet per calibration round would
// dominate the run.
var (
	ensBenchOnce     sync.Once
	ensBenchErr      error
	ensBenchCascade  *core.Prodigy
	ensBenchFleet    *core.Prodigy
	ensBenchSolo     *core.Prodigy
	ensBenchStreamed *mat.Matrix
)

func ensBenchModels(tb testing.TB) (cascade, fleet, solo *core.Prodigy, stream *mat.Matrix) {
	tb.Helper()
	ensBenchOnce.Do(func() {
		ds := ensBenchDataset()
		ensBenchStreamed = ensBenchStream()

		// The naive z-score pre-filter, the cascade's only stage 1:
		// O(dims) per row, so the benchmark isolates the fleet's cost.
		eCfg := ensemble.Config{Prefilter: "naive", PassFrac: 0.05,
			Members: []string{"vae", "usad", "lof"}, Seed: 11}
		ensBenchCascade = core.New(ensBenchCoreConfig())
		if ensBenchErr = ensBenchCascade.FitEnsemble(ds, nil, eCfg, ensBenchUSAD); ensBenchErr != nil {
			return
		}

		// Same fleet with the pre-filter disabled: every row reaches every
		// member — the cost the cascade exists to avoid.
		fCfg := eCfg
		fCfg.Prefilter = ""
		ensBenchFleet = core.New(ensBenchCoreConfig())
		if ensBenchErr = ensBenchFleet.FitEnsemble(ds, nil, fCfg, ensBenchUSAD); ensBenchErr != nil {
			return
		}

		ensBenchSolo = core.New(ensBenchCoreConfig())
		ensBenchErr = ensBenchSolo.Fit(ds, ds)
	})
	if ensBenchErr != nil {
		tb.Fatalf("ensemble bench setup: %v", ensBenchErr)
	}
	return ensBenchCascade, ensBenchFleet, ensBenchSolo, ensBenchStreamed
}

// benchScoreStream scores the full stream per iteration and reports
// rows/s as samples/s.
func benchScoreStream(b *testing.B, p *core.Prodigy, stream *mat.Matrix) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Scores(stream)
	}
	b.ReportMetric(float64(b.N*stream.Rows)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCascadeScoring: the naive pre-filter clears the normal bulk;
// only the ~5% tail reaches the VAE/USAD/LOF fleet.
func BenchmarkCascadeScoring(b *testing.B) {
	cascade, _, _, stream := ensBenchModels(b)
	benchScoreStream(b, cascade, stream)
}

// BenchmarkFullFleetScoring: the same fleet scores every row — the
// no-cascade upper bound on cost.
func BenchmarkFullFleetScoring(b *testing.B) {
	_, fleet, _, stream := ensBenchModels(b)
	benchScoreStream(b, fleet, stream)
}

// BenchmarkSoloVAEScoring: the paper's single-model deployment on the
// same stream, for context on what the ensemble's robustness costs.
func BenchmarkSoloVAEScoring(b *testing.B) {
	_, _, solo, stream := ensBenchModels(b)
	benchScoreStream(b, solo, stream)
}

// TestEmitEnsembleBenchJSON (BENCH_ENSEMBLE_JSON) snapshots the cascade:
// the three closed-loop benchmarks with the cascade's observed pass
// rate, plus the fused-vs-solo evaluation table as informational
// (NsPerOp=0) entries. It enforces the PR's two acceptance bars:
//
//   - cascade throughput ≥3× the full-fleet-every-row baseline on the
//     ≥95%-normal stream (retaken best-of-three before failing, like the
//     instrumentation-overhead gate);
//   - fused F1 and AUC within 0.01 of the solo Prodigy on each system's
//     campaign.
func TestEmitEnsembleBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_ENSEMBLE_JSON")
	if path == "" {
		t.Skip("set BENCH_ENSEMBLE_JSON=<path> to emit the ensemble benchmark JSON")
	}
	report := benchReport{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TrainWorkers:  nn.TrainConfig{}.EffectiveWorkers(),
	}
	closed := []namedBench{
		{"CascadeScoring", BenchmarkCascadeScoring},
		{"FullFleetScoring", BenchmarkFullFleetScoring},
		{"SoloVAEScoring", BenchmarkSoloVAEScoring},
	}
	nsPerOp := map[string]float64{}
	for _, nb := range closed {
		fn := nb.fn
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if res.N == 0 {
			t.Fatalf("benchmark %s did not run", nb.name)
		}
		entry := benchEntry{
			Name:        nb.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if v, ok := res.Extra["samples/s"]; ok {
			entry.SamplesPerSec = v
		}
		nsPerOp[nb.name] = entry.NsPerOp
		if nb.name == "CascadeScoring" {
			if ens, ok := ensemble.Of(ensBenchCascade.Artifact()); ok {
				entry.PrefilterPassFrac = ens.PassFrac()
			}
		}
		report.Benchmarks = append(report.Benchmarks, entry)
		t.Logf("%s: %.0f ns/op, %.0f samples/s", nb.name, entry.NsPerOp, entry.SamplesPerSec)
	}

	// Acceptance: the pre-filter must buy ≥3× over running the whole
	// fleet on every row. One testing.Benchmark sample can jitter on a
	// loaded machine, so an apparent miss is retaken best-of-three.
	cascade, fleet := nsPerOp["CascadeScoring"], nsPerOp["FullFleetScoring"]
	speedup := fleet / cascade
	if speedup < 3 {
		cascade = bestNsPerOp(3, BenchmarkCascadeScoring)
		fleet = bestNsPerOp(3, BenchmarkFullFleetScoring)
		speedup = fleet / cascade
	}
	t.Logf("cascade speedup over full fleet: %.1f× (%.0f vs %.0f ns/op)", speedup, cascade, fleet)
	if speedup < 3 {
		t.Errorf("cascade is only %.1f× the full-fleet baseline, want ≥3×", speedup)
	}

	// The fused-vs-solo quality table (same table `experiments -run
	// ensemble` prints), recorded as informational entries: detection
	// quality is what the throughput win must not cost.
	eval, err := experiments.RunEnsembleEval(experiments.Quick, 1)
	if err != nil {
		t.Fatalf("ensemble eval: %v", err)
	}
	for _, row := range eval.Rows {
		report.Benchmarks = append(report.Benchmarks, benchEntry{
			Name:              "EnsembleEval/" + row.System + "/" + row.Model,
			F1:                row.F1,
			AUC:               row.AUC,
			PrefilterPassFrac: row.PassFrac,
		})
		t.Logf("eval %s %s: F1 %.3f, AUC %.3f, pass-frac %.3f", row.System, row.Model, row.F1, row.AUC, row.PassFrac)
	}
	for _, system := range []string{"eclipse", "volta"} {
		solo := eval.RowFor(system, "prodigy-vae")
		fused := eval.RowFor(system, "cascade-rank")
		if solo == nil || fused == nil {
			t.Fatalf("eval table missing rows for %s: %+v", system, eval.Rows)
		}
		if fused.F1 < solo.F1-0.01 {
			t.Errorf("%s: fused F1 %.3f below solo %.3f − 0.01", system, fused.F1, solo.F1)
		}
		if fused.AUC < solo.AUC-0.01 {
			t.Errorf("%s: fused AUC %.3f below solo %.3f − 0.01", system, fused.AUC, solo.AUC)
		}
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
