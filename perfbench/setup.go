package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/experiments"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/online"
	"prodigy/internal/pipeline"
	"prodigy/internal/serve"
	"prodigy/internal/server"
)

// The campaign every workload starts from, built the way prodigyd builds
// its own: Volta, Minimal catalog, 30 s trim, 24 jobs × 4 nodes × 240 s,
// a quarter of the jobs anomalous (6240 features per node).
const (
	campaignJobs = 24
	jobNodes     = 4
	jobSeconds   = 240
	trimSeconds  = 30
	dropProb     = 0.005
)

var voltaApps = []string{"nas-bt", "nas-cg", "nas-ft", "nas-lu", "nas-mg", "nas-sp",
	"minimd", "comd", "minighost", "miniamr", "kripke"}

// campaign is simulated telemetry plus its ground truth.
type campaign struct {
	sys   *cluster.System
	store *dsos.Store
	jobs  []int64
	truth map[int64]map[int][2]string
	apps  map[int64]string
	// rows are the campaign's LDMS rows in stream order.
	rows []ldms.Row
}

// recorder is an ldms.Sink that keeps rows. ldms.Aggregate feeds a sink
// from one consumer goroutine and returns after it drains.
type recorder struct{ rows []ldms.Row }

func (r *recorder) Ingest(row ldms.Row) { r.rows = append(r.rows, row) }

// sortRows puts rows in one deterministic stream order: job by job, time
// step by time step, node and sampler within a step. The aggregator's
// fan-in order varies run to run; the benchmark's inputs must not.
func sortRows(rows []ldms.Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Sampler < b.Sampler
	})
}

// simulateCampaign runs the campaign's jobs on a fresh Volta, collects them
// through LDMS and ingests the rows into a fresh DSOS store.
func simulateCampaign(seed int64) (*campaign, error) {
	c := &campaign{
		sys:   cluster.Volta(),
		store: dsos.NewStore(),
		truth: map[int64]map[int][2]string{},
		apps:  map[int64]string{},
	}
	rng := rand.New(rand.NewSource(seed))
	injectors := hpas.AllTable2()
	// Exactly a quarter of the jobs are anomalous, the k-th of them running
	// the k-th Table 2 injector (prodigyd draws each job with probability
	// 0.25 and picks the injector by job index): the share and the anomaly
	// types must not vary from seed to seed.
	anomalous := map[int]hpas.Injector{}
	for k, i := range rng.Perm(campaignJobs)[:campaignJobs/4] {
		anomalous[i] = injectors[k%len(injectors)]
	}
	rec := &recorder{}
	for i := 0; i < campaignJobs; i++ {
		app := voltaApps[i%len(voltaApps)]
		job, err := c.sys.Submit(app, jobNodes, jobSeconds, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", app, err)
		}
		truth := map[int][2]string{}
		if inj, ok := anomalous[i]; ok {
			for _, n := range job.Nodes {
				if rng.Float64() < 0.8 {
					job.Injectors[n] = inj
					truth[n] = [2]string{inj.Name(), inj.Config()}
				}
			}
		}
		c.sys.CollectJob(job, ldms.CollectConfig{DropProb: dropProb, Seed: seed + job.ID}, rec)
		if err := c.sys.Complete(job.ID); err != nil {
			return nil, err
		}
		c.jobs = append(c.jobs, job.ID)
		c.truth[job.ID] = truth
		c.apps[job.ID] = app
	}
	sortRows(rec.rows)
	for _, r := range rec.rows {
		c.store.Ingest(r)
	}
	c.rows = rec.rows
	return c, nil
}

// ingestRepeats is how many times ingestRate re-ingests the campaign.
const ingestRepeats = 7

// ingestRate re-ingests the campaign's rows into fresh stores and returns
// the median Store.Ingest rate in rows per second. Each repeat starts from
// a collected heap, so the GC work it triggers is the same from run to
// run. It then drops the rows, so they do not count in the measured
// phase's heap.
func (c *campaign) ingestRate() float64 {
	defer func() { c.rows = nil }()
	rates := make([]float64, 0, ingestRepeats)
	for i := 0; i < ingestRepeats; i++ {
		runtime.GC()
		store := dsos.NewStore()
		start := time.Now()
		for _, r := range c.rows {
			store.Ingest(r)
		}
		rates = append(rates, float64(len(c.rows))/time.Since(start).Seconds())
	}
	return median(rates)
}

// buildDataset extracts the whole-run dataset from the stored campaign.
func (c *campaign) buildDataset() (*pipeline.Dataset, error) {
	b := pipeline.NewDatasetBuilder(c.store)
	b.Gen.TrimSeconds = trimSeconds
	b.Pipe.Catalog = features.Minimal()
	for _, id := range c.jobs {
		b.AddJob(id, c.apps[id], c.truth[id])
	}
	return b.Build()
}

// modelConfig is prodigyd's Quick-budget Prodigy configuration.
func modelConfig(seed int64, numFeatures int) core.Config {
	like := experiments.CampaignConfig{System: "volta", Catalog: features.Minimal(), TrimSeconds: trimSeconds}
	cfg := experiments.ProdigyConfig(experiments.Quick, like, seed)
	experiments.TopKFor(&cfg, numFeatures)
	return cfg
}

// fitSolo trains the solo VAE pipeline.
func fitSolo(ds *pipeline.Dataset, seed int64) (*core.Prodigy, error) {
	p := core.New(modelConfig(seed, ds.X.Cols))
	if err := p.Fit(ds, nil); err != nil {
		return nil, fmt.Errorf("fit vae: %w", err)
	}
	return p, nil
}

// fitCascade trains the default cascade ensemble (naive pre-filter,
// vae/usad/lof fleet, rank fusion) the way prodigyd -ensemble does.
func fitCascade(ds *pipeline.Dataset, seed int64) (*core.Prodigy, error) {
	p := core.New(modelConfig(seed, ds.X.Cols))
	ecfg := ensemble.DefaultConfig()
	ecfg.Seed = seed
	usadCfg := experiments.USADConfig(experiments.Quick, seed)
	newMember := func(kind string, inputDim int) (pipeline.Model, error) {
		if kind == "usad" {
			return pipeline.NewUSADModel(usadCfg(inputDim))
		}
		return nil, nil
	}
	if err := p.FitEnsemble(ds, nil, ecfg, newMember); err != nil {
		return nil, fmt.Errorf("fit ensemble: %w", err)
	}
	return p, nil
}

// streamConfig is prodigyd's streaming-detector geometry.
func streamConfig() online.Config {
	return online.Config{Window: 60, Stride: 30, Grace: 2, Catalog: features.Minimal()}
}

// fitWindowModel trains the streaming detector's window-level VAE on the
// stored campaign sliced into windows.
func fitWindowModel(c *campaign, seed int64) (*core.Prodigy, error) {
	wds, err := online.BuildWindowDataset(c.store, c.truth, c.apps, streamConfig())
	if err != nil {
		return nil, fmt.Errorf("window dataset: %w", err)
	}
	p := core.New(modelConfig(seed, wds.X.Cols))
	if err := p.Fit(wds, nil); err != nil {
		return nil, fmt.Errorf("fit window model: %w", err)
	}
	return p, nil
}

// front is the dashboard server listening on a loopback port.
type front struct {
	srv  *server.Server
	http *http.Server
	addr string
	done chan struct{}
}

// startFront wires server.NewWithTier over the default serving tier and
// starts serving it on 127.0.0.1.
func startFront(store *dsos.Store, p *core.Prodigy) (*front, error) {
	srv := server.NewWithTier(store, p, serve.NewTier(p, serve.DefaultConfig()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &front{srv: srv, http: &http.Server{Handler: srv}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		if err := f.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return f, nil
}

// close stops the listener, waits for the serve loop and stops the tier.
func (f *front) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.http.Shutdown(ctx) // a timeout leaves nothing to clean up beyond Close
	_ = f.http.Close()
	<-f.done
	f.srv.Close()
}

// client returns an HTTP client holding at most one keep-alive connection.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}
