package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeOptions runs a workload briefly, setting up once. A traced run gets
// longer phases: its attribution check compares means over its requests.
func smokeOptions(t *testing.T, trace bool) options {
	seconds := 2 * time.Second
	if trace {
		seconds = 6 * time.Second
	}
	return options{
		seed:      7,
		seconds:   seconds,
		trace:     trace,
		traceOut:  filepath.Join(t.TempDir(), "trace.json"),
		setupReps: 1,
	}
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// and checks the result line: correct, every metric of the mode present
// with its unit, end-to-end metrics nonzero, and the trace written.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := smokeOptions(t, trace)
				res, err := w.run(o)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				ok := report(&out, w.name, o, res)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !ok {
					t.Fatalf("run not correct:\n%s", out.String())
				}
				var got resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !got.Correct || got.Attempted < 1 {
					t.Fatalf("result %+v", got)
				}
				if !strings.HasPrefix(lines[len(lines)-2], "env {") {
					t.Errorf("no environment record before the result line")
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := got.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case !trace && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
				if trace {
					data, err := os.ReadFile(o.traceOut)
					if err != nil {
						t.Fatal(err)
					}
					var doc struct {
						Spans []span `json:"spans"`
					}
					if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
						t.Errorf("trace file has no spans (err %v)", err)
					}
				}
			})
		}
	}
}

// TestChecksCanFail breaks each output check on purpose and requires the
// run to report it.
func TestChecksCanFail(t *testing.T) {
	cases := []struct {
		workload, sabotage string
		trace              bool
	}{
		{"job-dashboard", "reference", false},
		{"score-http", "reference", false},
		{"score-http", "fleet", false},
		{"tier-cascade", "reference", false},
		{"tier-cascade", "fleet", false},
		{"live-ingest", "reference", false},
		{"tier-cascade", "attribution", true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.sabotage, func(t *testing.T) {
			w, ok := findWorkload(c.workload)
			if !ok {
				t.Fatalf("no workload %s", c.workload)
			}
			o := smokeOptions(t, c.trace)
			o.seconds = time.Second
			o.sabotage = c.sabotage
			res, err := w.run(o)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if report(&out, w.name, o, res) {
				t.Fatalf("sabotaged %s check passed:\n%s", c.sabotage, out.String())
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(es []entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name+" "+e.Unit)
		}
		sort.Strings(out)
		return out
	}
	defNames := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name+" ")
	}
	sort.Strings(wl)
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), wl},
		{"end_to_end", names(spec.EndToEnd), defNames(endToEnd)},
		{"per_layer", names(spec.PerLayer), defNames(perLayer)},
	} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", c.what, c.got, c.want)
		}
	}
}
