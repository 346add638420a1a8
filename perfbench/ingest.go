package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"prodigy/internal/apps"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/online"
)

// live-ingest stream: further jobs replayed row by row, half of them with
// an HPAS injector on two nodes that switches on mid-run.
const (
	streamJobs      = 40
	streamNodesHit  = 2
	onsetEarliest   = 60
	onsetLatest     = 150
	streamSeedShift = 1000
)

// liveTrainingSeed seeds the campaign the streaming model is trained on.
// The campaign is only training history here — the workload's input is
// the stream, which --seed draws — and with a per-seed model the window F1
// spread 0.13–0.3 of its median across ten seeds.
const liveTrainingSeed = 1

// onsetInjector delays a public hpas.Injector: before onset the node runs
// clean, from onset on the injector runs as if the anomaly had just been
// launched.
type onsetInjector struct {
	hpas.Injector
	onset int64
}

func (o onsetInjector) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	if t < o.onset {
		return
	}
	o.Injector.Apply(d, t-o.onset, total-o.onset, rng)
}

// stream is the pre-generated live-ingest input and its ground truth.
type stream struct {
	rows []ldms.Row
	// onset maps job → injected node → the stream-clock second its
	// anomaly starts.
	onset map[int64]map[int]int64
}

// generateStream runs the stream's jobs on the campaign's system and
// records their rows in one deterministic order. Every other job is
// injected, cycling through the Table 2 injectors, and the injected nodes'
// onsets are stratified over [onsetEarliest, onsetLatest), so the anomaly
// mix is the same for every seed and only the nodes, onsets, telemetry
// noise and the trained model vary.
func generateStream(c *campaign, seed int64) (*stream, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x0111))
	injectors := hpas.AllTable2()
	strata := rng.Perm(streamJobs / 2 * streamNodesHit)
	width := float64(onsetLatest-onsetEarliest) / float64(len(strata))

	s := &stream{onset: map[int64]map[int]int64{}}
	rec := &recorder{}
	for i := 0; i < streamJobs; i++ {
		app := voltaApps[i%len(voltaApps)]
		job, err := c.sys.Submit(app, jobNodes, jobSeconds, seed+streamSeedShift+int64(i))
		if err != nil {
			return nil, fmt.Errorf("submit stream job: %w", err)
		}
		if i%2 == 1 {
			inj := injectors[(i/2)%len(injectors)]
			s.onset[job.ID] = map[int]int64{}
			for _, k := range rng.Perm(len(job.Nodes))[:streamNodesHit] {
				stratum := strata[0]
				strata = strata[1:]
				onset := onsetEarliest + int64((float64(stratum)+rng.Float64())*width)
				n := job.Nodes[k]
				job.Injectors[n] = onsetInjector{Injector: inj, onset: onset}
				s.onset[job.ID][n] = onset
			}
		}
		c.sys.CollectJob(job, ldms.CollectConfig{DropProb: dropProb, Seed: seed + streamSeedShift + job.ID}, rec)
		if err := c.sys.Complete(job.ID); err != nil {
			return nil, err
		}
	}
	sortRows(rec.rows)
	s.rows = rec.rows
	return s, nil
}

// runLiveIngest replays the stream as fast as possible from one goroutine,
// each row into a fresh dsos.Store and into an online.Detector, pass after
// pass until the time is up. An event's latency runs from the start of the
// Detector.Ingest call on the row that closed its window to the event's
// delivery.
func runLiveIngest(o options) (*result, error) {
	type deployment struct {
		camp *campaign
		p    *core.Prodigy
	}
	d, setupS, err := timedSetups(o.setupReps, func() (*deployment, error) {
		c, err := simulateCampaign(liveTrainingSeed)
		if err != nil {
			return nil, err
		}
		p, err := fitWindowModel(c, liveTrainingSeed)
		if err != nil {
			return nil, err
		}
		return &deployment{camp: c, p: p}, nil
	}, func(*deployment) {})
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.metrics["setup_s"] = setupS
	s, err := generateStream(d.camp, o.seed)
	if err != nil {
		return nil, err
	}
	// The measured path writes a fresh store per pass; the campaign's store
	// only served training and is dropped so it does not weigh on the GC.
	d.camp = nil
	ref, err := replay(s, d.p)
	if err != nil {
		return nil, err
	}
	if o.sabotage == "reference" {
		ref[0].Score = math.Nextafter(ref[0].Score, math.Inf(1))
	}
	res.metrics["f1"] = streamF1(ref, s)
	res.samples["reference_events"] = len(ref)

	lr := &liveRun{s: s, p: d.p, ref: ref, res: res}
	if !o.trace {
		pe, lat := lr.run(o.seconds, nil)
		res.setEndToEnd(pe, lat)
		res.metrics["ingest_rows_per_s"] = float64(lr.rows) / lr.busy.Seconds()
		delay, detected := detectDelay(lr.firstPass, s)
		res.metrics["detect_delay_s"] = delay
		res.samples["detect_delay"] = detected
		if detected == 0 {
			res.fail("no injected node was detected in the stream")
		}
		return res, nil
	}
	_, untraced := lr.run(o.seconds/2, nil)
	tr := newTracer()
	lr.stages = &liveStages{}
	pe, traced := lr.run(o.seconds/2, tr)
	res.setCounterLayers(pe)
	st := lr.stages
	res.metrics["dsos.ingest_us_per_row"] = ratio(float64(st.dsos)/1e3, float64(st.rows))
	res.metrics["online.ingest_us_per_row"] = ratio(float64(st.ingest)/1e3, float64(st.rows))
	res.metrics["online.assemble_ms_per_window"] = ratio(ms(st.assemble), float64(st.windows))
	res.metrics["online.score_us_per_window"] = ratio(float64(st.score)/1e3, float64(st.windows))
	res.samples["traced_rows"] = st.rows
	finishTrace(res, o, tr, "live-ingest", untraced, traced, untraced)
	return res, nil
}

// replay is the untimed reference: the whole stream through a plain
// detector, flushed at the end.
func replay(s *stream, p *core.Prodigy) ([]online.Event, error) {
	var events []online.Event
	det, err := online.NewDetector(streamConfig(), p, func(ev online.Event) { events = append(events, ev) })
	if err != nil {
		return nil, err
	}
	for _, r := range s.rows {
		det.Ingest(r)
	}
	det.Flush()
	return events, nil
}

// windowTruth labels a window of a node: 1 anomalous (it starts at or
// after the node's onset), 0 healthy (it ends by the onset, or the node is
// clean), -1 when it straddles the onset and is left out of scoring.
func windowTruth(s *stream, ev online.Event) int {
	onset, injected := s.onset[ev.JobID][ev.Component]
	switch {
	case !injected || ev.WindowEnd <= onset:
		return 0
	case ev.WindowStart >= onset:
		return 1
	}
	return -1
}

// streamF1 scores window verdicts against the injection ground truth.
func streamF1(events []online.Event, s *stream) float64 {
	var tp, fp, fn float64
	for _, ev := range events {
		switch truth := windowTruth(s, ev); {
		case truth == 1 && ev.Anomalous:
			tp++
		case truth == 0 && ev.Anomalous:
			fp++
		case truth == 1:
			fn++
		}
	}
	return f1(tp, fp, fn)
}

// timedEvent is a delivered event with the stream second of the row that
// triggered it and its wall latency.
type timedEvent struct {
	ev        online.Event
	triggerTS int64
	latency   time.Duration
	at        float64 // delivery, seconds into the phase
}

// detectDelay returns the mean, over injected nodes that were flagged,
// of the stream seconds from onset to the row that closed the first
// anomalous window overlapping the anomaly, plus that event's wall
// latency; and how many nodes it covers. Windows only the end-of-stream
// flush emitted have no triggering row and do not count.
func detectDelay(events []timedEvent, s *stream) (float64, int) {
	first := map[[2]int64]float64{}
	for _, te := range events {
		onset, injected := s.onset[te.ev.JobID][te.ev.Component]
		key := [2]int64{te.ev.JobID, int64(te.ev.Component)}
		if _, seen := first[key]; seen || !injected || !te.ev.Anomalous || te.ev.WindowEnd <= onset || te.triggerTS < 0 {
			continue
		}
		first[key] = float64(te.triggerTS-onset) + te.latency.Seconds()
	}
	sum := 0.0
	for _, v := range first {
		sum += v
	}
	return ratio(sum, float64(len(first))), len(first)
}

// liveStages accumulates the traced run's per-layer times.
type liveStages struct {
	rows, windows                 int
	dsos, ingest, assemble, score time.Duration
}

// timedPredictor is the online.Predictor handed to the traced detector: it
// wraps each window's scoring call in a span of the current row's trace.
type timedPredictor struct {
	p      *core.Prodigy
	rt     *reqTrace
	parent int
	calls  int
	total  time.Duration
}

func (t *timedPredictor) DetectVector(vec []float64) (bool, float64) {
	id := t.rt.begin("online.score", t.parent)
	anomalous, score := t.p.DetectVector(vec)
	t.total += t.rt.end(id)
	t.calls++
	return anomalous, score
}

func (t *timedPredictor) FeatureNames() []string { return t.p.FeatureNames() }

// liveRun is the closed-loop replayer.
type liveRun struct {
	s      *stream
	p      *core.Prodigy
	ref    []online.Event
	res    *result
	stages *liveStages

	rows      int
	busy      time.Duration
	firstPass []timedEvent
	passes    int
}

// run replays passes until dur has elapsed (the last one may stop part
// way), checks each pass's events against the reference, and returns the
// phase measurements and the event latencies (ms).
func (l *liveRun) run(dur time.Duration, tr *tracer) (phaseEnd, []sample) {
	ph := beginPhase()
	var lat []sample
	for time.Since(ph.start) < dur {
		var got []timedEvent
		var callStart time.Time
		var callTS int64
		pred := &timedPredictor{p: l.p}
		var model online.Predictor = l.p
		if tr != nil {
			model = pred
		}
		det, err := online.NewDetector(streamConfig(), model, func(ev online.Event) {
			now := time.Now()
			got = append(got, timedEvent{ev: ev, triggerTS: callTS, latency: now.Sub(callStart), at: now.Sub(ph.start).Seconds()})
		})
		if err != nil {
			l.res.fail("new detector: %v", err)
			break
		}
		store := dsos.NewStore()
		start := time.Now()
		complete := true
		for i, r := range l.s.rows {
			if i%256 == 0 && time.Since(ph.start) >= dur {
				complete = false
				break
			}
			before := len(got)
			callTS = r.Timestamp
			if tr == nil {
				callStart = time.Now()
				det.Ingest(r)
				store.Ingest(r)
			} else {
				l.tracedRow(tr, int64(l.passes)<<32|int64(i), r, det, store, pred, &callStart)
			}
			for _, te := range got[before:] {
				lat = append(lat, sample{at: te.at, ms: ms(te.latency), verdicts: 1})
			}
			l.rows++
			l.res.attempted++
		}
		l.busy += time.Since(start)
		if complete {
			callTS = -1 // flushed windows have no triggering row
			det.Flush()
		}
		l.check(got, complete)
		if l.passes == 0 {
			l.firstPass = got
		}
		l.passes++
	}
	return ph.end(), lat
}

// tracedRow ingests one row under spans: the detector's Ingest (with each
// window's scoring as a child span) and the store's Ingest. Rows that
// closed a window commit their stage split, weighted by their events.
func (l *liveRun) tracedRow(tr *tracer, id int64, r ldms.Row, det *online.Detector, store *dsos.Store,
	pred *timedPredictor, callStart *time.Time) {
	st := l.stages
	rt := tr.request(id)
	root := rt.begin("row", -1)
	oi := rt.begin("online.ingest", root)
	pred.rt, pred.parent, pred.calls, pred.total = rt, oi, 0, 0
	*callStart = time.Now()
	det.Ingest(r)
	ingest := rt.end(oi)
	ds := rt.begin("dsos.ingest", root)
	store.Ingest(r)
	st.dsos += rt.end(ds)
	rt.end(root)
	st.rows++
	st.ingest += ingest
	windows := pred.calls
	if windows == 0 {
		return
	}
	st.windows += windows
	st.assemble += rt.self(oi)
	st.score += pred.total
	rt.commit(map[string]time.Duration{
		"online.assemble": rt.self(oi),
		"online.score":    pred.total,
	}, float64(windows))
}

// check compares a pass's events with the reference replay: a complete
// pass must match it exactly, a pass cut off by the clock must match its
// prefix.
func (l *liveRun) check(got []timedEvent, complete bool) {
	if len(got) > len(l.ref) || (complete && len(got) != len(l.ref)) {
		l.res.fail("live-ingest pass %d delivered %d events, the reference replay %d", l.passes, len(got), len(l.ref))
		return
	}
	for i, te := range got {
		want := l.ref[i]
		ev := te.ev
		if ev.JobID != want.JobID || ev.Component != want.Component || ev.WindowStart != want.WindowStart ||
			ev.WindowEnd != want.WindowEnd || ev.Anomalous != want.Anomalous ||
			math.Float64bits(ev.Score) != math.Float64bits(want.Score) {
			l.res.fail("live-ingest pass %d event %d differs from the reference replay", l.passes, i)
			return
		}
	}
}
