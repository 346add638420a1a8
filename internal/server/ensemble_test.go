package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
	"prodigy/internal/server"
)

// deployEnsembleServer trains the budgeted cascade (naive pre-filter,
// cheap deterministic fleet) on a small campaign and serves it — the
// harness for the scheduler-under-traffic test.
func deployEnsembleServer(t *testing.T) (*httptest.Server, *core.Prodigy, *pipeline.Dataset) {
	t.Helper()
	sys := cluster.NewSystem("test", 8, cluster.EclipseNode(), 0)
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	submit := func(app string, inj hpas.Injector) {
		job, err := sys.Submit(app, 4, 140, 21)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				truth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.01, Seed: 21 + job.ID}, store)
		builder.AddJob(job.ID, app, truth)
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		submit("lammps", nil)
		submit("sw4", nil)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05})

	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Trainer = pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"}
	cfg.Catalog = features.Minimal()
	cfg.TrimSeconds = 20
	p := core.New(cfg)
	eCfg := ensemble.Config{
		Prefilter: "naive", PassFrac: 0.05,
		Members: []string{"naive", "kmeans", "lof"}, Seed: 21,
	}
	if err := p.FitEnsemble(ds, nil, eCfg, nil); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(server.New(store, p))
	t.Cleanup(ts.Close)
	return ts, p, ds
}

// postScore submits the first n dataset rows to /api/score and returns
// the HTTP status.
func postScore(t *testing.T, url string, ds *pipeline.Dataset, n int) int {
	t.Helper()
	vectors := make([][]float64, n)
	for i := range vectors {
		vectors[i] = ds.X.Row(i)
	}
	body, err := json.Marshal(map[string]interface{}{"vectors": vectors})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// modelsActiveMetric scrapes ensemble_models_active off /metrics.
func modelsActiveMetric(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ensemble_models_active ([0-9.]+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("ensemble_models_active not exposed on /metrics")
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return int(v)
}

// TestEnsembleServingShedRestore exercises the ISSUE's acceptance
// scenario end to end: a deployed cascade answers /api/score, a
// starvation budget sheds fleet members one batch at a time down to a
// single survivor (ensemble_models_active tracking each step), scoring
// never stops answering, and lifting the budget restores the fleet.
func TestEnsembleServingShedRestore(t *testing.T) {
	ts, p, ds := deployEnsembleServer(t)

	if got := p.ModelKind(); got != "ensemble" {
		t.Fatalf("ModelKind = %q, want ensemble", got)
	}
	if status := postScore(t, ts.URL, ds, 8); status != http.StatusOK {
		t.Fatalf("score status %d", status)
	}
	if got := modelsActiveMetric(t, ts.URL); got != 3 {
		t.Fatalf("ensemble_models_active = %d before shedding, want 3", got)
	}

	// /api/health exposes the cascade introspection payload.
	health := getJSON(t, ts.URL+"/api/health", http.StatusOK)
	if health["model_kind"] != "ensemble" {
		t.Fatalf("health model_kind = %v", health["model_kind"])
	}
	ensSection, ok := health["ensemble"].(map[string]interface{})
	if !ok {
		t.Fatalf("health has no ensemble section: %v", health)
	}
	if ensSection["prefilter"] != "naive" {
		t.Fatalf("health ensemble.prefilter = %v", ensSection["prefilter"])
	}

	ens, ok := ensemble.Of(p.Artifact())
	if !ok {
		t.Fatal("deployed artifact carries no ensemble")
	}
	// Starvation budget: every scored batch sheds the most expensive
	// member until one is left; /api/score keeps answering throughout.
	ens.SetBudgetNs(1)
	for i := 0; i < 4; i++ {
		if status := postScore(t, ts.URL, ds, 8); status != http.StatusOK {
			t.Fatalf("score status %d while shedding (round %d)", status, i)
		}
	}
	if got := modelsActiveMetric(t, ts.URL); got != 1 {
		t.Fatalf("ensemble_models_active = %d under starvation budget, want 1", got)
	}
	if members := ens.ActiveMembers(); len(members) != 1 {
		t.Fatalf("active members %v, want one survivor", members)
	}

	// Budget lifted: the next scored batch restores the whole fleet.
	ens.SetBudgetNs(0)
	if status := postScore(t, ts.URL, ds, 8); status != http.StatusOK {
		t.Fatalf("score status %d after budget lift", status)
	}
	if got := modelsActiveMetric(t, ts.URL); got != 3 {
		t.Fatalf("ensemble_models_active = %d after restore, want 3", got)
	}
}
