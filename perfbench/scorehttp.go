package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/pipeline"
	"prodigy/internal/serve"
)

// score-http traffic: Poisson arrivals at a fixed rate, nine in ten
// carrying one campaign vector and one in ten carrying 32.
const (
	scoreHTTPRate   = 40.0
	bigRequestFrac  = 0.1
	bigRequestRows  = 32
	bigBodyVariants = 16
)

// arrivals returns rate×dur arrival offsets over dur: a Poisson process
// conditioned on its count (sorted uniform points), so every seed offers
// the same load and only the arrival pattern varies.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	due := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// exactMix returns n flags, round(frac×n) of them set, in seeded order.
func exactMix(rng *rand.Rand, n int, frac float64) []bool {
	flags := make([]bool, n)
	for i := 0; i < int(math.Round(frac*float64(n))); i++ {
		flags[i] = true
	}
	rng.Shuffle(n, func(i, j int) { flags[i], flags[j] = flags[j], flags[i] })
	return flags
}

// cascadeDeployment is a campaign with the cascade ensemble deployed.
type cascadeDeployment struct {
	camp *campaign
	ds   *pipeline.Dataset
	p    *core.Prodigy
	ens  *ensemble.Ensemble
	tier *serve.Tier
	// f is the HTTP front over tier, when the workload goes through HTTP.
	f *front
	// refScores and refPreds are Prodigy.DetectBatch over every campaign
	// row: what any scoring path must return for that row, bit for bit.
	refScores []float64
	refPreds  []int
}

// setupCascade simulates and ingests the campaign, fits the cascade and
// starts the default serving tier over it, behind the HTTP front when
// withHTTP is set. The result it returns carries the set-up metrics.
func setupCascade(o options, withHTTP bool) (*cascadeDeployment, *result, error) {
	d, setupS, err := timedSetups(o.setupReps, func() (*cascadeDeployment, error) {
		c, err := simulateCampaign(o.seed)
		if err != nil {
			return nil, err
		}
		ds, err := c.buildDataset()
		if err != nil {
			return nil, err
		}
		p, err := fitCascade(ds, o.seed)
		if err != nil {
			return nil, err
		}
		ens, ok := ensemble.Of(p.Artifact())
		if !ok {
			return nil, fmt.Errorf("deployed model is %q, not the cascade", p.ModelKind())
		}
		d := &cascadeDeployment{camp: c, ds: ds, p: p, ens: ens}
		if withHTTP {
			if d.f, err = startFront(c.store, p); err != nil {
				return nil, err
			}
			d.tier = d.f.srv.Tier
		} else {
			d.tier = serve.NewTier(p, serve.DefaultConfig())
		}
		// Starting to serve includes the first flush, which allocates the
		// flusher's batch staging buffer (MaxBatch × width floats); over
		// HTTP it also decodes the first body.
		rows := make([]int, bigRequestRows)
		for i := range rows {
			rows[i] = i % ds.Len()
		}
		first := encodeBody(d, rows)
		if withHTTP {
			err = postOnce(d.f.addr, first.json)
		} else {
			_, err = d.tier.ScoreBatch(context.Background(), first.vectors)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("first flush: %w", err)
		}
		return d, nil
	}, func(d *cascadeDeployment) { d.close() })
	if err != nil {
		return nil, nil, err
	}
	d.refPreds, d.refScores, _ = d.p.DetectBatch(d.ds.X)
	if o.sabotage == "reference" {
		for i := range d.refScores {
			d.refScores[i] = math.Nextafter(d.refScores[i], math.Inf(1))
		}
	}
	return d, newSetupResult(setupS, d.camp), nil
}

func (d *cascadeDeployment) close() {
	if d.f != nil {
		d.f.close() // stops the tier too
		return
	}
	d.tier.Stop()
}

// row returns campaign row i as a feature vector.
func (d *cascadeDeployment) row(i int) []float64 {
	w := d.ds.X.Cols
	return d.ds.X.Data[i*w : (i+1)*w]
}

// scoreBody is one pre-encoded POST /api/score body and the campaign rows
// it carries.
type scoreBody struct {
	rows    []int
	vectors [][]float64
	json    []byte
}

// scoreResponse is the body /api/score answers with.
type scoreResponse struct {
	Threshold float64 `json:"threshold"`
	Results   []struct {
		Score     float64 `json:"score"`
		Anomalous bool    `json:"anomalous"`
	} `json:"results"`
}

// verdictTally accumulates delivered verdicts against the ground truth.
type verdictTally struct {
	verdicts, mismatches int
	tp, fp, fn           float64
	// flaggedLat holds the latency (ms) of each request that flagged an
	// injected node's whole-run vector.
	flaggedLat []float64
}

// add checks one request's verdicts against the reference and the truth.
func (t *verdictTally) add(d *cascadeDeployment, rows []int, scores []float64, anomalous []bool, latMs float64) {
	flagged := false
	for j, i := range rows {
		if math.Float64bits(scores[j]) != math.Float64bits(d.refScores[i]) || anomalous[j] != (d.refPreds[i] == 1) {
			t.mismatches++
		}
		injected := d.ds.Meta[i].Label != 0
		switch {
		case anomalous[j] && injected:
			t.tp++
			flagged = true
		case anomalous[j]:
			t.fp++
		case injected:
			t.fn++
		}
	}
	if flagged {
		t.flaggedLat = append(t.flaggedLat, latMs)
	}
	t.verdicts += len(rows)
}

func (t *verdictTally) merge(o *verdictTally) {
	t.verdicts += o.verdicts
	t.mismatches += o.mismatches
	t.tp += o.tp
	t.fp += o.fp
	t.fn += o.fn
	t.flaggedLat = append(t.flaggedLat, o.flaggedLat...)
}

// setQuality reports the verdict checks and quality metrics of a phase.
func (t *verdictTally) setQuality(r *result, what string) {
	if t.mismatches > 0 {
		r.fail("%d %s verdicts differ from Prodigy.DetectBatch on the same rows", t.mismatches, what)
	}
	r.metrics["f1"] = f1(t.tp, t.fp, t.fn)
	r.metrics["detect_delay_s"] = jobSeconds + quantile(t.flaggedLat, 0.5)/1e3
	r.samples["detect_delay"] = len(t.flaggedLat)
	if len(t.flaggedLat) == 0 {
		r.fail("no injected node was flagged")
	}
}

// checkFleet fails the run unless the cascade kept its whole fleet active
// through the phase.
func checkFleet(r *result, o options, w *activeWatch) {
	low := w.end()
	r.metrics["ensemble.members_active_min"] = float64(low)
	full := w.full
	if o.sabotage == "fleet" {
		full++
	}
	if low != full {
		r.fail("ensemble.members_active_min is %d, the full fleet is %d", low, full)
	}
}

// runScoreHTTP drives POST /api/score with an open loop over at most
// nproc keep-alive connections. Each request's clock starts at its due
// time, so waiting for a free connection counts.
func runScoreHTTP(o options) (*result, error) {
	d, res, err := setupCascade(o, true)
	if err != nil {
		return nil, err
	}
	defer d.close()

	rng := rand.New(rand.NewSource(o.seed ^ 0x5c0e))
	small := make([]*scoreBody, d.ds.Len())
	for i := range small {
		small[i] = encodeBody(d, []int{i})
	}
	big := make([]*scoreBody, bigBodyVariants)
	for v := range big {
		rows := make([]int, bigRequestRows)
		for j := range rows {
			rows[j] = rng.Intn(d.ds.Len())
		}
		big[v] = encodeBody(d, rows)
	}
	schedule := func(dur time.Duration) scoreSchedule {
		// Every phase of a run offers the same arrivals and bodies, so a
		// traced phase replays exactly what its untraced twin measured.
		rng := rand.New(rand.NewSource(o.seed ^ 0xa77))
		due := arrivals(rng, scoreHTTPRate, dur)
		bodies := make([]*scoreBody, len(due))
		for k, isBig := range exactMix(rng, len(due), bigRequestFrac) {
			if isBig {
				bodies[k] = big[rng.Intn(len(big))]
			} else {
				bodies[k] = small[rng.Intn(len(small))]
			}
		}
		return scoreSchedule{due: due, bodies: bodies}
	}
	loop := &scoreLoop{d: d, res: res}
	if !o.trace {
		pe, lat := loop.run(schedule(o.seconds), nil, o)
		res.setEndToEnd(pe, lat)
		loop.tally.setQuality(res, "/api/score")
		return res, nil
	}
	_, untraced := loop.run(schedule(o.seconds/2), nil, o)
	tr := newTracer()
	loop.stages = &scoreStagesHTTP{}
	pe, traced := loop.run(schedule(o.seconds/2), tr, o)
	loop.tally.setQuality(res, "/api/score")
	res.setCounterLayers(pe)
	loop.stages.set(res)
	served := res.metrics["server.transport_ms"] + res.metrics["server.handler_ms"]
	share := ratio(res.metrics["server.decode_ms"], served)
	finding := "reproduced"
	if share < 0.5 {
		finding = "not reproduced"
	}
	res.note("finding %s: JSON decode is %.0f%% of the mean time a request spends being served (connection wait excluded)", finding, 100*share)
	finishTrace(res, o, tr, "score-http", untraced, traced, traced)
	return res, nil
}

// postOnce sends one score request and requires a 200.
func postOnce(addr string, body []byte) error {
	cl := client()
	defer cl.CloseIdleConnections()
	resp, err := cl.Post("http://"+addr+"/api/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /api/score: %s", resp.Status)
	}
	return nil
}

// encodeBody pre-encodes a score request carrying the given campaign rows.
func encodeBody(d *cascadeDeployment, rows []int) *scoreBody {
	b := &scoreBody{rows: rows}
	for _, i := range rows {
		b.vectors = append(b.vectors, d.row(i))
	}
	b.json, _ = json.Marshal(map[string][][]float64{"vectors": b.vectors}) // finite floats always encode
	return b
}

// scoreStagesHTTP accumulates the traced run's per-layer times.
type scoreStagesHTTP struct {
	requests                   int
	transport, handler, decode time.Duration
	waits                      []float64
	score                      scoreStages
}

// scoreSchedule is one phase's arrivals and the body each one sends.
type scoreSchedule struct {
	due    []time.Duration
	bodies []*scoreBody
}

// set reports the traced run's per-layer means.
func (st *scoreStagesHTTP) set(res *result) {
	n := float64(st.requests)
	res.metrics["server.transport_ms"] = ms(st.transport) / n
	res.metrics["server.handler_ms"] = ms(st.handler) / n
	res.metrics["server.decode_ms"] = ms(st.decode) / n
	res.metrics["serve.coalesce_wait_ms"] = mean(st.waits)
	res.metrics["serve.coalesce_wait_p99_ms"] = quantile(st.waits, 0.99)
	st.score.set(res)
	res.samples["traced_requests"] = st.requests
}

// scoreLoop is the open-loop /api/score client pool.
type scoreLoop struct {
	d      *cascadeDeployment
	res    *result
	stages *scoreStagesHTTP
	tally  verdictTally
}

// run sends one request per scheduled arrival from nproc workers, each
// over its own keep-alive connection, and returns the phase measurements
// and the latencies (ms) of the requests that succeeded.
func (l *scoreLoop) run(sched scoreSchedule, tr *tracer, o options) (phaseEnd, []sample) {
	due, bodies := sched.due, sched.bodies
	workers := runtime.NumCPU()
	var next atomic.Int64
	var mu sync.Mutex
	var lat []sample
	var late []float64
	var served []servedReq
	var failed int
	var tally verdictTally
	ph := beginPhase()
	watch := watchActive(l.d.ens)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client()
			defer cl.CloseIdleConnections()
			var myLat []sample
			var myLate []float64
			var myServed []servedReq
			var myTally verdictTally
			myFailed := 0
			for {
				k := int(next.Add(1)) - 1
				if k >= len(due) {
					break
				}
				pickup := time.Now()
				at := ph.start.Add(due[k])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				send := time.Now()
				if pickup.After(at) {
					myLate = append(myLate, ms(send.Sub(pickup)))
				} else {
					myLate = append(myLate, ms(send.Sub(at)))
				}
				b := bodies[k]
				resp, err := cl.Post("http://"+l.d.f.addr+"/api/score", "application/json", bytes.NewReader(b.json))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				done := time.Now()
				if err != nil || resp.StatusCode != http.StatusOK {
					myFailed++
					continue
				}
				latMs := ms(done.Sub(at))
				myLat = append(myLat, sample{at: done.Sub(ph.start).Seconds(), ms: latMs, verdicts: len(b.rows)})
				var got scoreResponse
				if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != len(b.rows) {
					myTally.mismatches++
					continue
				}
				scores := make([]float64, len(got.Results))
				anomalous := make([]bool, len(got.Results))
				for j, r := range got.Results {
					scores[j], anomalous[j] = r.Score, r.Anomalous
				}
				myTally.add(l.d, b.rows, scores, anomalous, latMs)
				if tr != nil {
					myServed = append(myServed, servedReq{k: k, body: b, at: at, send: send, done: done})
				}
			}
			mu.Lock()
			served = append(served, myServed...)
			lat = append(lat, myLat...)
			late = append(late, myLate...)
			failed += myFailed
			tally.merge(&myTally)
			mu.Unlock()
		}()
	}
	wg.Wait()
	pe := ph.end()
	checkFleet(l.res, o, watch)
	l.res.attempted += len(due)
	l.res.failed += failed
	l.tally.merge(&tally)
	l.res.setGenLate(late)
	// Replays run after the phase, so they neither hold up the open loop
	// nor count in its per-layer counters.
	sort.Slice(served, func(i, j int) bool { return served[i].k < served[j].k })
	for _, r := range served {
		l.traceLayers(tr.request(int64(r.k)), r)
	}
	return pe, lat
}

// servedReq is a request of the traced phase, kept for its replay.
type servedReq struct {
	k              int
	body           *scoreBody
	at, send, done time.Time
}

// setGenLate records how late an open-loop generator ran behind its
// schedule and marks the run invalid when it fell behind.
func (r *result) setGenLate(late []float64) {
	p99 := quantile(late, 0.99)
	if p99 > r.genLateP99Ms {
		r.genLateP99Ms = p99
	}
	r.metrics["harness.gen_late_p99_ms"] = r.genLateP99Ms
	if r.genLateP99Ms > maxGenLateMs {
		r.invalid = fmt.Sprintf("generator p99 lateness %.2f ms exceeds %.0f ms", r.genLateP99Ms, maxGenLateMs)
	}
}

// traceLayers replays a served request through the handler on a recorder
// and through Tier.ScoreBatch on the already-decoded vectors, splitting its
// latency into queueing for a connection, transport, the server's JSON
// decode/encode, coalesce wait and scoring.
func (l *scoreLoop) traceLayers(rt *reqTrace, r servedReq) {
	d, st, b, at, send, done := l.d, l.stages, r.body, r.at, r.send, r.done
	root := rt.add("request", -1, at, done)
	rt.add("harness.queue", root, at, send)
	hs := rt.add("http", root, send, done)
	sh := rt.begin("server.handler", -1)
	req := httptest.NewRequest(http.MethodPost, "/api/score", bytes.NewReader(b.json))
	d.f.srv.ServeHTTP(httptest.NewRecorder(), req)
	rt.end(sh)
	ss := rt.begin("serve.score_batch", -1)
	out, err := d.tier.ScoreBatch(context.Background(), b.vectors)
	rt.end(ss)
	if err != nil {
		return // a shed replay has no wait to attribute
	}
	start := rt.startOf(ss)
	rt.add("serve.coalesce_wait", ss, start, start.Add(out.Waited))

	roundTrip, handler, batch := rt.dur(hs), rt.dur(sh), rt.dur(ss)
	st.requests++
	st.transport += roundTrip - handler
	st.handler += handler
	st.decode += handler - batch
	st.waits = append(st.waits, ms(out.Waited))
	if len(st.waits)%4 == 1 {
		// Select/scale and model cost on a quarter of the requests' rows.
		if err := st.score.measure(d.p, matrixOf(b.vectors)); err != nil {
			l.res.fail("trace: score stages: %v", err)
		}
	}
	rt.commit(map[string]time.Duration{
		"harness.queue":       send.Sub(at),
		"http.transport":      roundTrip - handler,
		"server.decode":       handler - batch,
		"serve.coalesce_wait": out.Waited,
		"serve.score":         batch - out.Waited,
	}, 1)
}
