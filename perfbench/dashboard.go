package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/features"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
)

// dashboard is the job-dashboard deployment: the stored campaign behind
// the HTTP server, scoring with the solo VAE.
type dashboard struct {
	camp *campaign
	p    *core.Prodigy
	f    *front
}

// anomaliesResponse is the body of GET /api/jobs/{id}/anomalies.
type anomaliesResponse struct {
	JobID int64                 `json:"job_id"`
	Nodes []core.NodePrediction `json:"nodes"`
}

// runJobDashboard drives GET /api/jobs/{id}/anomalies in a closed loop
// over one keep-alive connection, visiting the stored jobs in a seeded
// order. The clock starts when the request is sent and stops when its
// body has been read.
func runJobDashboard(o options) (*result, error) {
	d, setupS, err := timedSetups(o.setupReps, func() (*dashboard, error) {
		c, err := simulateCampaign(o.seed)
		if err != nil {
			return nil, err
		}
		ds, err := c.buildDataset()
		if err != nil {
			return nil, err
		}
		p, err := fitSolo(ds, o.seed)
		if err != nil {
			return nil, err
		}
		f, err := startFront(c.store, p)
		if err != nil {
			return nil, err
		}
		return &dashboard{camp: c, p: p, f: f}, nil
	}, func(d *dashboard) { d.f.close() })
	if err != nil {
		return nil, err
	}
	defer d.f.close()

	res := newSetupResult(setupS, d.camp)

	// The reference verdicts: a direct AnalyzeJob per job, untimed.
	refs := map[int64][]core.NodePrediction{}
	for _, id := range d.camp.jobs {
		nodes, err := d.p.AnalyzeJob(d.camp.store, id)
		if err != nil {
			return nil, fmt.Errorf("reference analysis of job %d: %w", id, err)
		}
		refs[id] = nodes
	}
	if o.sabotage == "reference" {
		for _, nodes := range refs {
			nodes[0].Score = math.Nextafter(nodes[0].Score, math.Inf(1))
		}
	}
	res.metrics["f1"] = dashboardF1(refs, d.camp.truth)

	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	order := make([]int64, 0, 64*len(d.camp.jobs))
	for len(order) < cap(order) {
		for _, i := range rng.Perm(len(d.camp.jobs)) {
			order = append(order, d.camp.jobs[i])
		}
	}

	dl := &dashLoop{d: d, refs: refs, order: order, cl: client(), res: res}
	defer dl.cl.CloseIdleConnections()
	if !o.trace {
		pe, lat := dl.run(o.seconds, nil)
		res.setEndToEnd(pe, lat)
		res.metrics["detect_delay_s"] = jobSeconds + quantile(dl.flaggedLat, 0.5)/1e3
		res.samples["detect_delay"] = len(dl.flaggedLat)
		if len(dl.flaggedLat) == 0 {
			res.fail("no injected node was flagged on the dashboard")
		}
		return res, nil
	}

	_, untraced := dl.run(o.seconds/2, nil)
	tr := newTracer()
	dl.stages = &dashStages{}
	pe, traced := dl.run(o.seconds/2, tr)
	res.setCounterLayers(pe)
	st := dl.stages
	n := float64(st.requests)
	res.metrics["server.transport_ms"] = ms(st.transport) / n
	res.metrics["server.handler_ms"] = ms(st.handler) / n
	res.metrics["server.decode_ms"] = 0
	res.metrics["core.analyze_job_ms"] = ms(st.analyze) / n
	res.metrics["dsos.query_job_ms"] = ms(st.query) / n
	res.metrics["pipeline.assemble_ms"] = ms(st.assemble) / n
	res.metrics["features.extract_ms_per_node"] = ratio(ms(st.extract), float64(st.nodes))
	st.score.set(res)
	res.samples["traced_requests"] = st.requests
	finishTrace(res, o, tr, "job-dashboard", untraced, traced, untraced)
	return res, nil
}

// dashboardF1 scores the reference verdicts against the simulator's
// ground truth, node by node.
func dashboardF1(refs map[int64][]core.NodePrediction, truth map[int64]map[int][2]string) float64 {
	var tp, fp, fn float64
	for id, nodes := range refs {
		for _, n := range nodes {
			_, injected := truth[id][n.Component]
			switch {
			case n.Anomalous && injected:
				tp++
			case n.Anomalous:
				fp++
			case injected:
				fn++
			}
		}
	}
	return f1(tp, fp, fn)
}

func f1(tp, fp, fn float64) float64 { return ratio(2*tp, 2*tp+fp+fn) }

// dashStages accumulates the traced run's per-layer times.
type dashStages struct {
	requests, nodes                                       int
	transport, handler, analyze, query, assemble, extract time.Duration
	score                                                 scoreStages
}

// dashLoop is the closed-loop client.
type dashLoop struct {
	d      *dashboard
	refs   map[int64][]core.NodePrediction
	order  []int64
	next   int
	cl     *http.Client
	res    *result
	stages *dashStages

	mismatches int
	// flaggedLat holds the latency (ms) of each verdict that flagged an
	// injected node: the dashboard's detection delay is the job's run
	// time plus that latency.
	flaggedLat []float64
}

// run drives requests until dur has elapsed and returns the phase's
// measurements and the latencies (ms) of the requests that succeeded.
func (l *dashLoop) run(dur time.Duration, tr *tracer) (phaseEnd, []sample) {
	ph := beginPhase()
	var lat []sample
	for time.Since(ph.start) < dur {
		job := l.order[l.next%len(l.order)]
		l.next++
		l.res.attempted++
		var rt *reqTrace
		root, hs := -1, -1
		if tr != nil {
			rt = tr.request(int64(l.next))
			root = rt.begin("request", -1)
			hs = rt.begin("http", root)
		}
		url := fmt.Sprintf("http://%s/api/jobs/%d/anomalies", l.d.f.addr, job)
		start := time.Now()
		resp, err := l.cl.Get(url)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		took := time.Since(start)
		if rt != nil {
			rt.end(hs)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			l.res.failed++
			continue
		}
		lat = append(lat, sample{at: time.Since(ph.start).Seconds(), ms: ms(took), verdicts: l.check(job, body, ms(took))})
		if rt != nil {
			l.traceLayers(rt, root, hs, job)
		}
	}
	pe := ph.end()
	if l.mismatches > 0 {
		l.res.fail("%d dashboard responses differ from a direct AnalyzeJob", l.mismatches)
		l.mismatches = 0
	}
	return pe, lat
}

// check compares one response with the reference verdicts bit for bit
// and returns how many verdicts it delivered.
func (l *dashLoop) check(job int64, body []byte, latMs float64) int {
	var got anomaliesResponse
	if err := json.Unmarshal(body, &got); err != nil || got.JobID != job || len(got.Nodes) != len(l.refs[job]) {
		l.mismatches++
		return 0
	}
	for i, n := range got.Nodes {
		want := l.refs[job][i]
		if n.Component != want.Component || n.Anomalous != want.Anomalous ||
			math.Float64bits(n.Score) != math.Float64bits(want.Score) ||
			math.Float64bits(n.Threshold) != math.Float64bits(want.Threshold) {
			l.mismatches++
			return 0
		}
		if _, injected := l.d.camp.truth[job][n.Component]; injected && n.Anomalous {
			l.flaggedLat = append(l.flaggedLat, latMs)
		}
	}
	return len(got.Nodes)
}

// traceLayers replays the request's work through each layer's public call
// under spans: the handler on a recorder, AnalyzeJob, and AnalyzeJob's
// steps one by one (query, table assembly, extraction, select/scale,
// model scores). The per-request stage split telescopes from the HTTP
// round trip down to the model.
func (l *dashLoop) traceLayers(rt *reqTrace, root, hs int, job int64) {
	d, st := l.d, l.stages
	path := fmt.Sprintf("/api/jobs/%d/anomalies", job)
	sh := rt.begin("server.handler", root)
	d.f.srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	rt.end(sh)

	replica := d.f.srv.Tier.ReplicaForJob(job)
	as := rt.begin("core.analyze_job", root)
	_, _ = replica.AnalyzeJob(d.camp.store, job) // verdicts are checked on the HTTP path
	rt.end(as)

	arena := timeseries.GetArena()
	qs := rt.begin("dsos.query_job", root)
	_, _ = d.camp.store.QueryJobInto(arena, job)
	rt.end(qs)
	timeseries.PutArena(arena)

	arena = timeseries.GetArena()
	defer timeseries.PutArena(arena)
	gen := pipeline.NewDataGenerator(d.camp.store)
	gen.TrimSeconds = replica.Cfg.TrimSeconds
	js := rt.begin("pipeline.job_tables", root)
	tables, err := gen.JobTablesInto(arena, job)
	rt.end(js)
	if err != nil {
		l.res.fail("trace: job tables of job %d: %v", job, err)
		return
	}
	cat := replica.Cfg.Catalog
	per := cat.NumFeaturesPerSeries()
	vec := make([]float64, len(replica.FeatureNames()))
	row := mat.NewFromData(1, len(vec), vec)
	ws := features.GetWorkspace()
	defer features.PutWorkspace(ws)
	var extract, selScale, scores time.Duration
	nodes := 0
	for _, comp := range d.camp.store.Components(job) {
		tb, ok := tables[comp]
		if !ok {
			continue
		}
		es := rt.begin("features.extract", root)
		for mi, m := range tb.Order {
			cat.ExtractSeriesInto(vec[mi*per:(mi+1)*per], tb.Columns[m], ws)
		}
		extract += rt.end(es)
		before := st.score
		if err := st.score.measure(replica, row); err != nil {
			l.res.fail("trace: score stages: %v", err)
			return
		}
		selScale += st.score.selectScale - before.selectScale
		scores += st.score.scores - before.scores
		nodes++
	}

	roundTrip, handler, analyze := rt.dur(hs), rt.dur(sh), rt.dur(as)
	query, tablesDur := rt.dur(qs), rt.dur(js)
	rt.end(root)
	st.requests++
	st.nodes += nodes
	st.transport += roundTrip - handler
	st.handler += handler
	st.analyze += analyze
	st.query += query
	st.assemble += tablesDur - query
	st.extract += extract
	rt.commit(map[string]time.Duration{
		"http.transport":        roundTrip - handler,
		"server.handler_self":   handler - analyze,
		"core.analyze_job_self": analyze - tablesDur - extract - selScale - scores,
		"dsos.query_job":        query,
		"pipeline.assemble":     tablesDur - query,
		"features.extract":      extract,
		"pipeline.select_scale": selScale,
		"vae.scores":            scores,
	}, 1)
}
