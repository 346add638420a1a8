package ensemble_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prodigy/internal/ensemble"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// syntheticDataset builds a labeled feature dataset with a tight healthy
// cluster and clearly displaced anomalies — enough structure for every
// fleet member (and the chi-square selection) to separate the classes.
func syntheticDataset(t testing.TB, healthy, anomalous, cols int, seed int64) *pipeline.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := healthy + anomalous
	x := mat.New(n, cols)
	meta := make([]pipeline.SampleMeta, n)
	names := make([]string, cols)
	for c := range names {
		names[c] = "f" + string(rune('a'+c%26)) + string(rune('0'+c/26))
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for c := range row {
			row[c] = rng.NormFloat64()
		}
		meta[i] = pipeline.SampleMeta{JobID: int64(i), Component: 0, App: "synthetic", Anomaly: "none"}
		if i >= healthy {
			// Anomalies: strong shift on half the features.
			for c := 0; c < cols; c += 2 {
				row[c] += 4 + rng.Float64()
			}
			meta[i].Anomaly = "synthetic-shift"
			meta[i].Config = "shift 4"
			meta[i].Label = 1
		}
	}
	return &pipeline.Dataset{FeatureNames: names, X: x, Meta: meta}
}

// tinyVAE is a fast VAE config for the identity tests.
func tinyVAE(inputDim int, seed int64) vae.Config {
	return vae.Config{
		HiddenDims: []int{8}, LatentDim: 2, Activation: "tanh",
		LearningRate: 1e-2, BatchSize: 16, Epochs: 60, Beta: 1e-3,
		ClipNorm: 5, Seed: seed, InputDim: inputDim,
	}
}

func trainerCfg() pipeline.TrainerConfig {
	return pipeline.TrainerConfig{TopK: 8, ThresholdPercentile: 99, ScalerKind: "minmax"}
}

// TestPassthroughBitIdentity pins the cascade-off anchor: with the
// pre-filter disabled and the VAE as the only fleet member, the
// ensemble's scores and threshold are bit-identical to the solo VAE
// artifact trained through the standard ModelTrainer flow.
func TestPassthroughBitIdentity(t *testing.T) {
	ds := syntheticDataset(t, 96, 12, 10, 3)
	test := syntheticDataset(t, 40, 8, 10, 4)

	solo := &pipeline.ModelTrainer{
		Cfg: trainerCfg(),
		NewModel: func(in int) (pipeline.Model, error) {
			return pipeline.NewVAEModel(tinyVAE(in, 7))
		},
	}
	soloArt, err := solo.Train(ds, ds, nil)
	if err != nil {
		t.Fatal(err)
	}

	ensArt, err := ensemble.Train(ensemble.TrainOptions{
		Cfg:     ensemble.Config{Prefilter: "", Members: []string{"vae"}, Seed: 7},
		Trainer: trainerCfg(),
		NewMember: func(kind string, in int) (pipeline.Model, error) {
			return pipeline.NewVAEModel(tinyVAE(in, 7))
		},
		Train:  ds,
		Select: ds,
	})
	if err != nil {
		t.Fatal(err)
	}

	if soloArt.Threshold != ensArt.Threshold {
		t.Errorf("threshold drifted through the passthrough ensemble: %v vs %v", ensArt.Threshold, soloArt.Threshold)
	}
	soloDet, err := soloArt.Detector()
	if err != nil {
		t.Fatal(err)
	}
	ensDet, err := ensArt.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := soloDet.Scores(test.X)
	got := ensDet.Scores(test.X)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: passthrough ensemble score %v != solo VAE score %v", i, got[i], want[i])
		}
	}
}

// cheapCascade trains a full cascade over cheap deterministic members —
// the harness for determinism, scheduler and round-trip tests.
func cheapCascade(t testing.TB, members []string) (*pipeline.Artifact, *pipeline.Dataset) {
	t.Helper()
	art, err := ensemble.Train(cheapTrainOptions(t, members))
	if err != nil {
		t.Fatal(err)
	}
	return art, syntheticDataset(t, 160, 40, 10, 6)
}

// cheapTrainOptions is cheapCascade's training setup: naive pre-filter
// at 5% pass over the given cheap fleet.
func cheapTrainOptions(t testing.TB, members []string) ensemble.TrainOptions {
	ds := syntheticDataset(t, 96, 12, 10, 5)
	return ensemble.TrainOptions{
		Cfg:     ensemble.Config{Prefilter: "naive", PassFrac: 0.05, Members: members, Seed: 11},
		Trainer: trainerCfg(),
		Train:   ds,
		Select:  ds,
	}
}

// TestCascadeScoreBands checks the cascade's score semantics: cleared
// rows live strictly below 1, passed rows in [1, 2], and the calibrated
// pre-filter clears the bulk of a mostly-normal stream while anomalies
// still cross the decision threshold.
func TestCascadeScoreBands(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans"})
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	preds, scores := det.Predict(test.X)
	cleared, passed := 0, 0
	detected, anomalies := 0, 0
	for i, s := range scores {
		switch {
		case s < 1:
			cleared++
		case s <= 2:
			passed++
		default:
			t.Fatalf("row %d: score %v outside the cascade's [0, 2] range", i, s)
		}
		if test.Meta[i].Label == 1 {
			anomalies++
			detected += preds[i]
		}
	}
	if cleared == 0 || passed == 0 {
		t.Fatalf("degenerate cascade: %d cleared, %d passed", cleared, passed)
	}
	healthyRows := len(scores) - anomalies
	// The pre-filter is calibrated to pass ≤ ~5% of held-out normal rows;
	// allow slack for distribution shift between train and test draws.
	normalPass := 0
	for i, s := range scores {
		if test.Meta[i].Label == 0 && s >= 1 {
			normalPass++
		}
	}
	if frac := float64(normalPass) / float64(healthyRows); frac > 0.25 {
		t.Errorf("pre-filter passed %.0f%% of normal rows, want ≤25%%", frac*100)
	}
	if frac := float64(detected) / float64(anomalies); frac < 0.75 {
		t.Errorf("cascade detected only %d/%d anomalies", detected, anomalies)
	}
}

// TestFusionDeterminism pins per-row determinism of the fused scores
// across the detector's worker fan-out (GOMAXPROCS 1, 2 and 8 produce
// different batch chunkings) and across fleet-member completion orders.
func TestFusionDeterminism(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans", "lof"})
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := det.Scores(test.X)

	for _, workers := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(workers)
		got := det.Scores(test.X)
		runtime.GOMAXPROCS(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: score %v != %v", workers, i, got[i], want[i])
			}
		}
	}

	// Completion order: delay each member in turn so every member finishes
	// last at least once.
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("artifact does not carry a live ensemble")
	}
	for _, slow := range []string{"naive", "kmeans", "lof"} {
		ens.SetMemberDelayForTest(func(kind string) {
			if kind == slow {
				time.Sleep(2 * time.Millisecond)
			}
		})
		got := det.Scores(test.X)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slow=%s row %d: score %v != %v", slow, i, got[i], want[i])
			}
		}
	}
	ens.SetMemberDelayForTest(nil)
}

// TestRankFusion checks the fleet stage against an independent oracle:
// with no pre-filter, a [naive, kmeans] cascade's scores equal, bit for
// bit, the mean of the two members' midrank empirical CDFs — computed
// here from scratch against independently fitted copies of both models.
func TestRankFusion(t *testing.T) {
	ds := syntheticDataset(t, 96, 12, 10, 5)
	test := syntheticDataset(t, 60, 20, 10, 8)
	kinds := []string{"naive", "kmeans"}

	fresh := func() []pipeline.Model {
		t.Helper()
		models := make([]pipeline.Model, len(kinds))
		for i, k := range kinds {
			m, err := pipeline.NewModelOfKind(k, 11)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		return models
	}
	e, err := ensemble.New(ensemble.Config{Members: kinds, PassFrac: 0.05, Seed: 11}, fresh())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FitHealthy(ds.X); err != nil {
		t.Fatal(err)
	}
	got := e.Scores(test.X)

	cdfs := make([][]float64, len(kinds))
	for k, ref := range fresh() {
		if err := ref.FitHealthy(ds.X); err != nil {
			t.Fatal(err)
		}
		trainScores := append([]float64(nil), ref.Scores(ds.X)...)
		sort.Float64s(trainScores)
		for _, s := range ref.Scores(test.X) {
			cdfs[k] = append(cdfs[k], midrankCDF(trainScores, s))
		}
	}
	for i := range got {
		if want := (cdfs[0][i] + cdfs[1][i]) / 2; got[i] != want {
			t.Fatalf("row %d: rank fusion %v != mean midrank CDF %v", i, got[i], want)
		}
	}
}

// midrankCDF mirrors the package's documented rank transform:
// (#below + #at-or-below) / 2n over the sorted reference.
func midrankCDF(ref []float64, v float64) float64 {
	lo := sort.SearchFloat64s(ref, v)
	hi := sort.Search(len(ref), func(i int) bool { return ref[i] > v })
	return (float64(lo) + float64(hi)) / (2 * float64(len(ref)))
}

// TestArtifactRoundTrip saves the cascade artifact to disk, loads it
// back and checks the rehydrated detector scores bit-identically —
// fleet members, pre-filter, margin and rank references all survive the
// JSON round-trip.
func TestArtifactRoundTrip(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans"})
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := det.Scores(test.X)

	path := filepath.Join(t.TempDir(), "ensemble.json")
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pipeline.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelKind != "ensemble" {
		t.Fatalf("loaded kind %q", loaded.ModelKind)
	}
	det2, err := loaded.Detector()
	if err != nil {
		t.Fatal(err)
	}
	got := det2.Scores(test.X)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: loaded score %v != original %v", i, got[i], want[i])
		}
	}
	ens, ok := ensemble.Of(loaded)
	if !ok {
		t.Fatal("loaded artifact does not expose the ensemble")
	}
	if got := len(ens.ActiveMembers()); got != 2 {
		t.Fatalf("loaded cascade has %d active members, want 2 (active flags must reset on load)", got)
	}
}

// TestLegacyArtifactRefused edits a saved cascade artifact the way an
// artifact trained with a deleted option would read: max or weighted
// fusion, per-member weights or the isolation-forest gate must fail to
// load with an error that names the field and says to retrain, while a
// legacy artifact of the deployed shape (explicit rank fusion, per-member
// weight 1) still loads and scores bit-identically.
func TestLegacyArtifactRefused(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans"})
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := det.Scores(test.X)
	dir := t.TempDir()
	orig := filepath.Join(dir, "ensemble.json")
	if err := art.Save(orig); err != nil {
		t.Fatal(err)
	}

	// edited loads the saved artifact with edit applied to its ensemble
	// blob (decoded generically, so the deleted fields can be written).
	edited := func(t *testing.T, edit func(model map[string]any)) (*pipeline.Artifact, error) {
		t.Helper()
		blob, err := os.ReadFile(orig)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(blob, &top); err != nil {
			t.Fatal(err)
		}
		var model map[string]any
		if err := json.Unmarshal(top["model"], &model); err != nil {
			t.Fatal(err)
		}
		edit(model)
		if top["model"], err = json.Marshal(model); err != nil {
			t.Fatal(err)
		}
		if blob, err = json.Marshal(top); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "edited.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return pipeline.LoadArtifact(path)
	}
	cfgOf := func(model map[string]any) map[string]any { return model["cfg"].(map[string]any) }

	for _, tc := range []struct {
		name, field string
		edit        func(cfg map[string]any)
	}{
		{"fusion max", "fusion", func(cfg map[string]any) { cfg["fusion"] = "max" }},
		{"fusion weighted", "fusion", func(cfg map[string]any) { cfg["fusion"] = "weighted"; cfg["weights"] = []float64{1, 0} }},
		{"weights", "weights", func(cfg map[string]any) { cfg["fusion"] = "rank"; cfg["weights"] = []float64{1, 1} }},
		{"iforest gate", "prefilter", func(cfg map[string]any) { cfg["prefilter"] = "iforest" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := edited(t, func(model map[string]any) { tc.edit(cfgOf(model)) })
			if err == nil {
				t.Fatal("artifact with a deleted option loaded")
			}
			if msg := err.Error(); !strings.Contains(msg, tc.field) || !strings.Contains(msg, "retrain") {
				t.Fatalf("error %q does not name %s and say retrain", msg, tc.field)
			}
		})
	}

	loaded, err := edited(t, func(model map[string]any) {
		cfgOf(model)["fusion"] = "rank"
		for _, m := range model["members"].([]any) {
			m.(map[string]any)["weight"] = 1.0
		}
	})
	if err != nil {
		t.Fatalf("legacy rank-fusion artifact refused: %v", err)
	}
	det2, err := loaded.Detector()
	if err != nil {
		t.Fatal(err)
	}
	got := det2.Scores(test.X)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: legacy rank artifact scores %v, want %v", i, got[i], want[i])
		}
	}
}

// TestScoresNeverChangeMembership pins where the budget scheduler lives:
// with a starvation budget and a backed-up queue armed, neither direct
// Ensemble.Scores calls nor Train's threshold calibration may shed a
// member — only AnomalyDetector.Scores' once-per-batch Tick does.
func TestScoresNeverChangeMembership(t *testing.T) {
	members := []string{"naive", "kmeans", "lof"}
	arm := func(e *ensemble.Ensemble) {
		e.SetBudgetNs(1)
		e.SetLoadProbe(func() (int, int) { return 90, 100 })
	}
	full := func(t *testing.T, ens *ensemble.Ensemble) {
		t.Helper()
		if got := ens.ActiveMembers(); len(got) != len(members) {
			t.Fatalf("active members %v, want the full fleet %v", got, members)
		}
		if got := ensemble.ModelsActiveForTest(); got != float64(len(members)) {
			t.Fatalf("ensemble_models_active = %v, want %d", got, len(members))
		}
	}

	art, test := cheapCascade(t, members)
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("no live ensemble")
	}
	scaler, err := art.LiveScaler()
	if err != nil {
		t.Fatal(err)
	}
	xSel := art.Selection.Apply(test.X)
	x := scaler.TransformInto(mat.New(xSel.Rows, xSel.Cols), xSel)
	arm(ens)
	for i := 0; i < 4; i++ {
		ens.Scores(x)
	}
	full(t, ens)

	armed, err := ensemble.TrainArmedForTest(cheapTrainOptions(t, members), arm)
	if err != nil {
		t.Fatal(err)
	}
	armedEns, ok := ensemble.Of(armed)
	if !ok {
		t.Fatal("no live ensemble")
	}
	full(t, armedEns)
	if armed.Threshold != art.Threshold {
		t.Fatalf("threshold %v with the scheduler armed during Train, %v without", armed.Threshold, art.Threshold)
	}
}

// TestBudgetSchedulerShedRestore drives the scheduler through a full
// shed/restore cycle: a tiny budget sheds the most expensive members
// one per batch down to a single survivor (never zero), lifting the
// budget restores the whole fleet, and queue pressure alone sheds too.
func TestBudgetSchedulerShedRestore(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans", "lof"})
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("no live ensemble")
	}
	score := func() { det.Scores(test.X) }

	score()
	if got := len(ens.ActiveMembers()); got != 3 {
		t.Fatalf("fresh cascade has %d active members, want 3", got)
	}

	// 1 ns/row is unmeetable: each batch sheds the most expensive member
	// until one is left.
	ens.SetBudgetNs(1)
	for i := 0; i < 4; i++ {
		score()
	}
	active := ens.ActiveMembers()
	if len(active) != 1 {
		t.Fatalf("after shedding, active = %v, want exactly one survivor", active)
	}
	if got := ensemble.ModelsActiveForTest(); got != 1 {
		t.Fatalf("ensemble_models_active = %v after shed, want 1", got)
	}
	// The most expensive member (LOF by ledger or prior) must be gone.
	for _, k := range active {
		if k == "lof" {
			t.Error("lof survived a 1ns budget; shed order should drop the most expensive first")
		}
	}
	// Shed state must still answer scoring with in-band scores.
	for _, s := range det.Scores(test.X) {
		if s < 0 || s > 2 {
			t.Fatalf("score %v out of band while shed", s)
		}
	}

	// Budget off, no probe: the fleet restores wholesale.
	ens.SetBudgetNs(0)
	score()
	if got := len(ens.ActiveMembers()); got != 3 {
		t.Fatalf("after budget lift, %d active members, want 3", got)
	}
	if got := ensemble.ModelsActiveForTest(); got != 3 {
		t.Fatalf("ensemble_models_active = %v after restore, want 3", got)
	}

	// Queue pressure without any ns budget: a backed-up tier sheds, a calm
	// tier restores one member per batch.
	var queued atomic.Int64
	ens.SetLoadProbe(func() (int, int) { return int(queued.Load()), 100 })
	queued.Store(90)
	score()
	if got := len(ens.ActiveMembers()); got != 2 {
		t.Fatalf("under queue pressure, %d active members, want 2", got)
	}
	queued.Store(0)
	score()
	if got := len(ens.ActiveMembers()); got != 3 {
		t.Fatalf("after queue drained, %d active members, want 3", got)
	}
	ens.SetLoadProbe(nil)

	st := ens.Status()
	if st.Prefilter != "naive" || len(st.Members) != 3 {
		t.Fatalf("status = %+v", st)
	}
}
