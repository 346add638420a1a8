package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function during the traced
// run. Spans of one request share Req; Parent indexes the enclosing span
// of the same request (-1 for a root).
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxKeptSpans bounds the spans kept for the trace file; stage totals are
// accumulated for every request regardless.
const maxKeptSpans = 200000

// tracer holds the traced run's spans in memory until the run ends, plus
// the per-stage time each request's latency splits into.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	splits  []split
}

// split is one request's latency divided into stages, weighted by how many
// latency samples the request stands for.
type split struct {
	total  time.Duration
	weight float64
	stages map[string]time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// reqTrace collects one request's spans on the goroutine serving it.
type reqTrace struct {
	tr    *tracer
	req   int64
	spans []span
}

func (tr *tracer) request(req int64) *reqTrace { return &reqTrace{tr: tr, req: req} }

func (r *reqTrace) at(t time.Time) int64 { return int64(t.Sub(r.tr.origin)) }

// begin opens a span now and returns its ID.
func (r *reqTrace) begin(name string, parent int) int {
	return r.add(name, parent, time.Now(), time.Time{})
}

// end closes span id now and returns its duration.
func (r *reqTrace) end(id int) time.Duration {
	r.spans[id].End = r.at(time.Now())
	return r.spans[id].dur()
}

// add records a span with known bounds (end may be zero, to be closed by
// end) and returns its ID.
func (r *reqTrace) add(name string, parent int, start, end time.Time) int {
	id := len(r.spans)
	s := span{Req: r.req, ID: id, Parent: parent, Name: name, Start: r.at(start)}
	if !end.IsZero() {
		s.End = r.at(end)
	}
	r.spans = append(r.spans, s)
	return id
}

// startOf returns when span id started.
func (r *reqTrace) startOf(id int) time.Time {
	return r.tr.origin.Add(time.Duration(r.spans[id].Start))
}

// dur returns the duration of span id.
func (r *reqTrace) dur(id int) time.Duration { return r.spans[id].dur() }

// self returns span id's duration minus the time its direct children
// cover (children of one span never overlap here: every span wraps a
// sequential call).
func (r *reqTrace) self(id int) time.Duration {
	d := r.spans[id].dur()
	for _, c := range r.spans {
		if c.Parent == id {
			d -= c.dur()
		}
	}
	return d
}

// commit stores the request's spans and adds its stage split, weighted by
// how many latency samples the request stands for.
func (r *reqTrace) commit(stages map[string]time.Duration, weight float64) {
	tr := r.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if room := maxKeptSpans - len(tr.spans); room >= len(r.spans) {
		tr.spans = append(tr.spans, r.spans...)
	} else {
		tr.dropped += len(r.spans)
	}
	sp := split{weight: weight, stages: stages}
	for _, d := range stages {
		sp.total += d
	}
	tr.splits = append(tr.splits, sp)
}

// trimFrac is the share of slowest requests the attribution check leaves
// out on both sides, so a few stalls from outside the process (or, on
// score-http, the one-in-ten 32-row requests colliding) cannot decide it.
const trimFrac = 0.1

// stageMeans returns each stage's mean time per latency sample, in ms, over
// the fastest 1−trimFrac of the traced requests.
func (tr *tracer) stageMeans() map[string]float64 {
	tr.mu.Lock()
	splits := append([]split(nil), tr.splits...)
	tr.mu.Unlock()
	sort.Slice(splits, func(i, j int) bool { return splits[i].total < splits[j].total })
	all := 0.0
	for _, sp := range splits {
		all += sp.weight
	}
	sum, weight := map[string]float64{}, 0.0
	for _, sp := range splits {
		if weight+sp.weight > (1-trimFrac)*all && weight > 0 {
			break
		}
		weight += sp.weight
		for name, d := range sp.stages {
			sum[name] += float64(d) * sp.weight
		}
	}
	out := map[string]float64{}
	for name, ns := range sum {
		out[name] = ratio(ns, weight) / 1e6
	}
	return out
}

// trimmedMean is the mean of the fastest 1−trimFrac of latencies (sorted
// in place).
func trimmedMean(lat []float64) float64 {
	sort.Float64s(lat)
	return mean(lat[:len(lat)-int(trimFrac*float64(len(lat)))])
}

// attributionBound is how far the stage self-times may sum from the
// reference mean latency, as a share of it; one stage's derived self-time
// may read down to −attributionBound/5 of it before the split is called
// inconsistent.
const attributionBound = 0.25

// checkAttribution verifies that the stage means account for the reference
// mean latency: |Σ stages − reference| ≤ attributionBound × reference, and
// no stage reads below −attributionBound/5 of it. It returns the signed gap
// as a share of the reference.
func checkAttribution(stages map[string]float64, refMs float64) (gap float64, err error) {
	sum := 0.0
	for _, v := range stages {
		sum += v
	}
	gap = ratio(sum-refMs, refMs)
	if refMs <= 0 || math.Abs(gap) > attributionBound {
		return gap, fmt.Errorf("attribution: stages sum to %.4f ms, reference mean latency is %.4f ms (gap %.1f%%, bound %.0f%%)",
			sum, refMs, 100*gap, 100*attributionBound)
	}
	for name, v := range stages {
		if v < -attributionBound/5*refMs {
			return gap, fmt.Errorf("attribution: stage %s has negative self-time %.4f ms", name, v)
		}
	}
	return gap, nil
}

// write saves the spans and stage split as JSON under path.
func (tr *tracer) write(path, workload string, seed int64) error {
	tr.mu.Lock()
	spans := tr.spans
	dropped := tr.dropped
	tr.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Req < spans[j].Req })
	doc := map[string]interface{}{
		"workload":      workload,
		"seed":          seed,
		"stage_mean_ms": tr.stageMeans(),
		"spans_dropped": dropped,
		"spans":         spans,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace reports the tracing overhead and the attribution check of a
// traced run and writes its spans. The stage split is checked against the
// trimmed mean latency of against: the untraced phase for the closed loops,
// whose traced phase replays layers inline; the traced phase itself for
// the open loops, whose traced phase does no tracing work while it runs
// (spans come from the timestamps every request takes, replays run after
// it) and whose two phases differ by more than the bound on their own.
func finishTrace(res *result, o options, tr *tracer, workload string, untracedSamples, tracedSamples, against []sample) {
	untraced, traced := msOf(untracedSamples), msOf(tracedSamples)
	reference := trimmedMean(msOf(against))
	if o.sabotage == "attribution" {
		reference *= 2
	}
	res.metrics["harness.tracing_overhead_frac"] = ratio(quantile(traced, 0.5), quantile(untraced, 0.5)) - 1
	res.samples["untraced_latency"] = len(untraced)
	res.samples["traced_latency"] = len(traced)
	stages := tr.stageMeans()
	for _, name := range sortedKeys(stages) {
		res.note("stage %-28s %10.4f ms", name, stages[name])
	}
	res.note("reference mean latency %.4f ms (fastest %.0f%%)", reference, 100*(1-trimFrac))
	gap, err := checkAttribution(stages, reference)
	res.metrics["harness.attribution_gap_frac"] = gap
	if err != nil {
		res.fail("%v", err)
	}
	if err := tr.write(o.traceOut, workload, o.seed); err != nil {
		res.fail("write trace: %v", err)
	}
}
