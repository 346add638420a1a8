// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) plus the ablation studies DESIGN.md calls out:
//
//	experiments -run all                  # everything, quick budget
//	experiments -run figure5 -budget paper
//	experiments -run figure6,figure7
//	experiments -run inventory            # Tables 1 and 2
//
// Quick budget uses reduced campaign scales and model sizes so the full
// sweep completes on a laptop; paper budget uses the Table 3 optima.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prodigy/internal/experiments"
	"prodigy/internal/features"
)

func main() {
	run := flag.String("run", "all", "comma-separated: figure5, figure6, figure7, table3, empire, inference, inventory, hetero, ablations, ensemble, all")
	budgetName := flag.String("budget", "quick", "quick or paper")
	seed := flag.Int64("seed", 1, "experiment seed")
	scale := flag.Float64("scale", 0.5, "campaign scale for figure5")
	folds := flag.Int("folds", 5, "cross-validation folds for figure5")
	flag.Parse()

	var budget experiments.Budget
	switch *budgetName {
	case "quick":
		budget = experiments.Quick
	case "paper":
		budget = experiments.Paper
	default:
		fatalf("unknown budget %q", *budgetName)
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	ran := 0
	start := time.Now()

	if all || want["inventory"] {
		step("inventory (Tables 1 & 2)")
		if err := experiments.PrintTable1(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		experiments.PrintTable2(os.Stdout)
		ran++
	}
	if all || want["figure5"] {
		for _, system := range []string{"eclipse", "volta"} {
			step("figure5 " + system)
			var cfg experiments.CampaignConfig
			if system == "eclipse" {
				cfg = experiments.EclipseCampaign(*scale, *seed)
			} else {
				cfg = experiments.VoltaCampaign(*scale, *seed)
			}
			if budget == experiments.Quick {
				cfg.Duration = 180
				cfg.Catalog = features.Minimal()
			}
			res, err := experiments.RunFigure5(cfg, budget, *folds, *seed)
			if err != nil {
				fatalf("figure5 %s: %v", system, err)
			}
			res.Print(os.Stdout)
		}
		ran++
	}
	if all || want["figure6"] {
		step("figure6")
		cfg := experiments.Figure6Campaign(240, *seed)
		repeats := 10
		if budget == experiments.Quick {
			cfg.Duration = 180
			cfg.Catalog = features.Minimal()
			repeats = 5
		}
		res, err := experiments.RunFigure6(cfg, budget, nil, repeats, *seed)
		if err != nil {
			fatalf("figure6: %v", err)
		}
		res.Print(os.Stdout)
		ran++
	}
	if all || want["figure7"] {
		step("figure7")
		res, err := experiments.RunFigure7(budget, *seed)
		if err != nil {
			fatalf("figure7: %v", err)
		}
		res.Print(os.Stdout)
		ran++
	}
	if all || want["table3"] {
		step("table3")
		res, err := experiments.RunTable3(budget, *seed)
		if err != nil {
			fatalf("table3: %v", err)
		}
		res.Print(os.Stdout)
		ran++
	}
	if all || want["empire"] {
		step("empire")
		res, err := experiments.RunEmpire(budget, *seed)
		if err != nil {
			fatalf("empire: %v", err)
		}
		res.Print(os.Stdout)
		ran++
	}
	if all || want["inference"] {
		for _, system := range []string{"eclipse", "volta"} {
			step("inference " + system)
			res, err := experiments.RunInference(system, budget, 10, *seed)
			if err != nil {
				fatalf("inference %s: %v", system, err)
			}
			res.Print(os.Stdout)
		}
		ran++
	}
	if all || want["hetero"] {
		step("hetero (§7 extension)")
		res, err := experiments.RunHetero(budget, *seed)
		if err != nil {
			fatalf("hetero: %v", err)
		}
		res.Print(os.Stdout)
		ran++
	}
	if all || want["ablations"] {
		runners := []struct {
			name string
			fn   func(experiments.Budget, int64) (*experiments.AblationResult, error)
		}{
			{"threshold", experiments.RunAblationThreshold},
			{"topk", experiments.RunAblationTopK},
			{"selection", experiments.RunAblationSelection},
			{"kmeans", experiments.RunAblationKMeans},
			{"unsupervised", experiments.RunAblationUnsupervised},
		}
		for _, r := range runners {
			step("ablation " + r.name)
			res, err := r.fn(budget, *seed)
			if err != nil {
				fatalf("ablation %s: %v", r.name, err)
			}
			res.Print(os.Stdout)
		}
		ran++
	}
	if all || want["ensemble"] {
		step("ensemble (cascade vs solo)")
		res, err := experiments.RunEnsembleEval(budget, *seed)
		if err != nil {
			fatalf("ensemble: %v", err)
		}
		res.Print(os.Stdout)
		ran++
	}
	if ran == 0 {
		fatalf("nothing matched -run %q", *run)
	}
	fmt.Printf("\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}

func step(name string) {
	fmt.Printf("\n=== %s ===\n", name)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
