package main

import (
	"time"

	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/mat"
)

// sample is one latency measurement: when the request completed (seconds
// into the phase), its latency in ms and how many verdicts it delivered.
type sample struct {
	at, ms   float64
	verdicts int
}

// msOf returns the latencies of samples.
func msOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// setEndToEnd fills the end-to-end metrics every workload shares from the
// measured phase: latencies of the requests that succeeded (a failed one
// counts as missing every limit, so it enters the percentiles at the
// phase's full wall time), verdicts delivered, CPU time and the heap. The
// tail percentiles and the peak heap are recorded but not gated (see
// README.md).
func (r *result) setEndToEnd(pe phaseEnd, samples []sample) {
	all := msOf(samples)
	verdicts := 0
	for _, s := range samples {
		verdicts += s.verdicts
	}
	for i := 0; i < r.failed; i++ {
		all = append(all, ms(pe.wall))
	}
	r.metrics["latency_p50_ms"] = quantile(all, 0.50)
	r.info["latency_mean_ms"] = mean(all)
	r.info["latency_p90_ms"] = quantile(all, 0.90)
	r.info["latency_p99_ms"] = quantile(all, 0.99)
	r.samples["latency"] = len(all)
	r.metrics["verdicts_per_s"] = float64(verdicts) / pe.wall.Seconds()
	r.metrics["cpu_us_per_verdict"] = ratio(float64(pe.cpu)/1e3, float64(verdicts))
	r.samples["verdicts"] = verdicts
	r.metrics["ok_frac"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))
	r.metrics["live_heap_mb"] = pe.retainedMB
	r.info["peak_live_heap_mb"] = pe.peakMB
}

// setCounterLayers fills the per-layer metrics read as deltas of the
// program's own obs counters over the traced phase. Layers the workload
// never reached read 0.
func (r *result) setCounterLayers(pe phaseEnd) {
	c0, c1 := pe.c0, pe.c1
	d := func(key string) float64 { return c1.delta(c0, key) }
	missFrac := func(prefix string) float64 {
		miss := d(prefix + "_pool_misses_total{}")
		return ratio(miss, miss+d(prefix+"_pool_hits_total{}"))
	}

	// serve: coalescing, flush triggers and shedding.
	r.metrics["serve.batch_rows_mean"] = ratio(d("serve_batch_rows_sum{}"), d("serve_batch_rows_count{}"))
	flushes := c1.sumPrefix(c0, "serve_flush_total{")
	r.metrics["serve.flush_window_frac"] = ratio(d("serve_flush_total{window}"), flushes)
	r.metrics["serve.flush_size_frac"] = ratio(d("serve_flush_total{size}"), flushes)
	r.metrics["serve.flush_drain_frac"] = ratio(d("serve_flush_total{drain}"), flushes)
	sheds := c1.sumPrefix(c0, "serve_shed_total{")
	offered := d("serve_requests_total{}") + d("serve_shed_total{queue_full}") + d("serve_shed_total{stopped}")
	r.metrics["serve.shed_frac"] = ratio(sheds, offered)

	// pools.
	r.metrics["features.pool_miss_frac"] = missFrac("features_workspace")
	r.metrics["timeseries.arena_pool_miss_frac"] = missFrac("timeseries_arena")
	r.metrics["mat.pool_miss_frac"] = missFrac("mat_workspace")

	// ensemble cascade stages, per row entering the cascade.
	rows := d("ensemble_rows_total{}")
	for _, stage := range []string{"prefilter", "fleet", "fuse"} {
		r.metrics["ensemble."+stage+"_us_per_row"] = 1e6 * ratio(d("ensemble_stage_seconds_sum{"+stage+"}"), rows)
	}
	r.metrics["ensemble.pass_frac"] = ratio(d("ensemble_rows_passed_total{}"), rows)
	for _, kind := range []string{"vae", "usad", "lof"} {
		r.metrics["ensemble.member_ns_per_row."+kind] = 1e9 * ratio(d("model_score_seconds_total{"+kind+"}"), d("model_rows_scored_total{"+kind+"}"))
	}
	r.metrics["ensemble.sched_transitions"] = c1.sumPrefix(c0, "ensemble_sched_transitions_total{")

	// online window assembly.
	dropped := c1.sumPrefix(c0, "online_windows_dropped_total{")
	r.metrics["online.windows_dropped_frac"] = ratio(dropped, dropped+d("online_windows_scored_total{}"))

	// Every per-layer metric is reported on every workload; a layer the
	// workload does not reach reads 0.
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.metrics[m.name] = 0
		}
	}
}

// activeWatch polls the deployed cascade's active fleet size during a
// phase and keeps the minimum, so a shed member shows even if it was
// restored before the phase ended.
type activeWatch struct {
	full int
	stop chan struct{}
	done chan int
}

func watchActive(ens *ensemble.Ensemble) *activeWatch {
	w := &activeWatch{full: len(ens.Cfg.Members), stop: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		low := len(ens.ActiveMembers())
		for {
			select {
			case <-w.stop:
				w.done <- min(low, len(ens.ActiveMembers()))
				return
			case <-tick.C:
				low = min(low, len(ens.ActiveMembers()))
			}
		}
	}()
	return w
}

// end stops the watch and returns the smallest active fleet seen.
func (w *activeWatch) end() int {
	close(w.stop)
	return <-w.done
}

// scoreStages times the deployed artifact's select/scale and model
// scoring on a batch, through the artifact's public parts: the feature
// selection, the live scaler and the live model.
type scoreStages struct {
	selectScale, scores time.Duration
	rows                int
}

func (s *scoreStages) measure(p *core.Prodigy, x *mat.Matrix) error {
	a := p.Artifact()
	scaler, err := a.LiveScaler()
	if err != nil {
		return err
	}
	model, err := a.LiveModel()
	if err != nil {
		return err
	}
	start := time.Now()
	scaled := scaler.TransformInto(&mat.Matrix{}, a.Selection.ApplyInto(&mat.Matrix{}, x))
	mid := time.Now()
	_ = model.Scores(scaled) // timed for cost only; verdicts are checked elsewhere
	end := time.Now()
	s.selectScale += mid.Sub(start)
	s.scores += end.Sub(mid)
	s.rows += x.Rows
	return nil
}

func (s *scoreStages) set(r *result) {
	r.metrics["pipeline.select_scale_us_per_row"] = ratio(float64(s.selectScale)/1e3, float64(s.rows))
	r.metrics["vae.scores_us_per_row"] = ratio(float64(s.scores)/1e3, float64(s.rows))
	r.samples["score_stage_rows"] = s.rows
}

// matrixOf copies vectors into one row-major matrix.
func matrixOf(vectors [][]float64) *mat.Matrix {
	m := mat.New(len(vectors), len(vectors[0]))
	for i, v := range vectors {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
	}
	return m
}
