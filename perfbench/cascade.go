package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"prodigy/internal/serve"
)

// tier-cascade traffic: Poisson arrivals at a fixed row rate, requests of
// 1, 8 and 64 rows in exactly a 6:3:1 ratio, rows exactly 97% healthy and
// 3% anomalous campaign vectors.
const (
	cascadeRowRate  = 20000.0
	cascadeAnomFrac = 0.03
)

var cascadeSizes = []int{1, 1, 1, 1, 1, 1, 8, 8, 8, 64}

// meanCascadeRows is the mean request size of cascadeSizes.
func meanCascadeRows() float64 {
	s := 0
	for _, n := range cascadeSizes {
		s += n
	}
	return float64(s) / float64(len(cascadeSizes))
}

// cascadeReq is one scheduled in-process scoring request.
type cascadeReq struct {
	rows    []int
	vectors [][]float64
	// filled by the request's goroutine
	start, done time.Time
	out         *serve.Result
	err         error
}

// runTierCascade submits Poisson arrivals straight to serve.Tier.ScoreBatch,
// one goroutine per arrival, bypassing HTTP and feature extraction. Each
// request's clock starts at its due time.
func runTierCascade(o options) (*result, error) {
	d, res, err := setupCascade(o, false)
	if err != nil {
		return nil, err
	}
	defer d.close()

	healthy, anomalous := d.ds.HealthyIndices(), d.ds.AnomalousIndices()
	rate := cascadeRowRate / meanCascadeRows()
	phase := func(dur time.Duration, tr *tracer) (phaseEnd, []sample, *verdictTally, []float64) {
		// Every phase of a run offers the same arrivals and rows, so a
		// traced phase replays exactly what its untraced twin measured.
		rng := rand.New(rand.NewSource(o.seed ^ 0xca5c))
		due := arrivals(rng, rate, dur)
		sizes := make([]int, len(due))
		rows := 0
		for k := range sizes {
			sizes[k] = cascadeSizes[k%len(cascadeSizes)]
			rows += sizes[k]
		}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		anom := exactMix(rng, rows, cascadeAnomFrac)
		reqs := make([]*cascadeReq, len(due))
		slot := 0
		for k := range reqs {
			r := &cascadeReq{rows: make([]int, sizes[k])}
			for j := range r.rows {
				if anom[slot] {
					r.rows[j] = anomalous[rng.Intn(len(anomalous))]
				} else {
					r.rows[j] = healthy[rng.Intn(len(healthy))]
				}
				r.vectors = append(r.vectors, d.row(r.rows[j]))
				slot++
			}
			reqs[k] = r
		}
		return runCascadePhase(d, res, o, due, reqs, tr)
	}
	if !o.trace {
		pe, lat, tally, _ := phase(o.seconds, nil)
		res.setEndToEnd(pe, lat)
		tally.setQuality(res, "Tier.ScoreBatch")
		return res, nil
	}
	_, untraced, _, _ := phase(o.seconds/2, nil)
	tr := newTracer()
	pe, traced, tally, waits := phase(o.seconds/2, tr)
	tally.setQuality(res, "Tier.ScoreBatch")
	res.setCounterLayers(pe)
	finishTrace(res, o, tr, "tier-cascade", untraced, traced, traced)
	share := ratio(quantile(waits, 0.5), quantile(msOf(untraced), 0.5))
	finding := "reproduced"
	if share < 0.5 {
		finding = "not reproduced"
	}
	res.note("finding %s: coalesce wait is %.0f%% of the tier-cascade p50 latency", finding, 100*share)
	return res, nil
}

// runCascadePhase dispatches each request at its due time on its own
// goroutine, waits for all of them, checks every verdict and, when traced,
// splits each latency into generator lateness, coalesce wait and scoring.
func runCascadePhase(d *cascadeDeployment, res *result, o options, due []time.Duration,
	reqs []*cascadeReq, tr *tracer) (pe phaseEnd, lat []sample, tally *verdictTally, waits []float64) {
	late := make([]float64, len(due))
	ph := beginPhase()
	watch := watchActive(d.ens)
	var wg sync.WaitGroup
	for k := range due {
		at := ph.start.Add(due[k])
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		late[k] = ms(time.Since(at))
		wg.Add(1)
		go func(r *cascadeReq) {
			defer wg.Done()
			r.start = time.Now()
			r.out, r.err = d.tier.ScoreBatch(context.Background(), r.vectors)
			r.done = time.Now()
		}(reqs[k])
	}
	wg.Wait()
	pe = ph.end()
	checkFleet(res, o, watch)
	res.setGenLate(late)

	tally = &verdictTally{}
	var stages scoreStages
	for k, r := range reqs {
		res.attempted++
		if r.err != nil {
			res.failed++
			continue
		}
		at := ph.start.Add(due[k])
		latMs := ms(r.done.Sub(at))
		lat = append(lat, sample{at: r.done.Sub(ph.start).Seconds(), ms: latMs, verdicts: len(r.rows)})
		anomalous := make([]bool, len(r.rows))
		for j, p := range r.out.Preds {
			anomalous[j] = p == 1
		}
		tally.add(d, r.rows, r.out.Scores, anomalous, latMs)
		if tr == nil {
			continue
		}
		waits = append(waits, ms(r.out.Waited))
		rt := tr.request(int64(k))
		root := rt.add("request", -1, at, r.done)
		rt.add("harness.gen_late", root, at, r.start)
		sb := rt.add("serve.score_batch", root, r.start, r.done)
		rt.add("serve.coalesce_wait", sb, r.start, r.start.Add(r.out.Waited))
		rt.commit(map[string]time.Duration{
			"harness.gen_late":    r.start.Sub(at),
			"serve.coalesce_wait": r.out.Waited,
			"serve.score":         r.done.Sub(r.start) - r.out.Waited,
		}, 1)
	}
	if tr != nil {
		// Select/scale and model cost, timed after the phase on the rows of
		// every tenth request so the replay does not load the open loop.
		for k := 0; k < len(reqs); k += 10 {
			if err := stages.measure(d.p, matrixOf(reqs[k].vectors)); err != nil {
				res.fail("trace: score stages: %v", err)
				break
			}
		}
		stages.set(res)
		res.metrics["serve.coalesce_wait_ms"] = mean(waits)
		res.metrics["serve.coalesce_wait_p99_ms"] = quantile(waits, 0.99)
		res.samples["traced_requests"] = len(waits)
	}
	return pe, lat, tally, waits
}
