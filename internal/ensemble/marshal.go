package ensemble

import (
	"encoding/json"
	"errors"
	"fmt"

	"prodigy/internal/pipeline"
)

// JSON round-trip: the ensemble serializes into a pipeline.Artifact
// like any other model, with fleet members nested as (kind, blob) pairs
// decoded back through pipeline.DecodeModel. Scheduler runtime state
// (active flags, throughput counters) is deliberately not persisted — a
// freshly deployed cascade starts with the whole fleet active.

type memberJSON struct {
	Kind  string          `json:"kind"`
	Ref   []float64       `json:"ref"`
	Model json.RawMessage `json:"model"`
}

// cfgJSON is Config on disk plus the fields of deleted options. They are
// decoded only so that an artifact trained with one is refused: loading
// it as a rank-fused cascade would keep its old threshold and silently
// rescore.
type cfgJSON struct {
	Config
	Fusion  string          `json:"fusion,omitempty"`
	Weights json.RawMessage `json:"weights,omitempty"`
}

type ensembleJSON struct {
	Cfg    cfgJSON         `json:"cfg"`
	Margin float64         `json:"margin,omitempty"`
	PreRef []float64       `json:"pre_ref,omitempty"`
	Pre    json.RawMessage `json:"prefilter_model,omitempty"`
	Member []memberJSON    `json:"members"`
}

// MarshalJSON implements json.Marshaler.
func (e *Ensemble) MarshalJSON() ([]byte, error) {
	ej := ensembleJSON{Cfg: cfgJSON{Config: e.Cfg}, Margin: e.margin, PreRef: e.preRef}
	if e.pre != nil {
		blob, err := json.Marshal(e.pre)
		if err != nil {
			return nil, fmt.Errorf("ensemble: marshal prefilter: %w", err)
		}
		ej.Pre = blob
	}
	for _, m := range e.members {
		blob, err := json.Marshal(m.model)
		if err != nil {
			return nil, fmt.Errorf("ensemble: marshal member %q: %w", m.kind, err)
		}
		ej.Member = append(ej.Member, memberJSON{Kind: m.kind, Ref: m.ref, Model: blob})
	}
	return json.Marshal(ej)
}

// UnmarshalJSON implements json.Unmarshaler, rebuilding a fitted
// cascade.
func (e *Ensemble) UnmarshalJSON(blob []byte) error {
	var ej ensembleJSON
	if err := json.Unmarshal(blob, &ej); err != nil {
		return err
	}
	if f := ej.Cfg.Fusion; f != "" && f != "rank" {
		return fmt.Errorf("ensemble: artifact sets cfg.fusion %q, a removed rule; only rank fusion remains, retrain the artifact", f)
	}
	if ej.Cfg.Weights != nil {
		return errors.New("ensemble: artifact sets cfg.weights, a removed option; only unweighted rank fusion remains, retrain the artifact")
	}
	models := make([]pipeline.Model, len(ej.Member))
	for i, mj := range ej.Member {
		m, err := pipeline.DecodeModel(mj.Kind, mj.Model)
		if err != nil {
			return fmt.Errorf("ensemble: member %q: %w", mj.Kind, err)
		}
		models[i] = m
	}
	built, err := New(ej.Cfg.Config, models)
	if err != nil {
		return err
	}
	*e = Ensemble{Cfg: built.Cfg, members: built.members, margin: ej.Margin, preRef: ej.PreRef}
	for i, mj := range ej.Member {
		e.members[i].ref = mj.Ref
	}
	if ej.Pre != nil {
		pre, err := pipeline.DecodeModel(ej.Cfg.Prefilter, ej.Pre)
		if err != nil {
			return fmt.Errorf("ensemble: prefilter %q: %w", ej.Cfg.Prefilter, err)
		}
		e.pre = pre
	}
	e.sched.init(e)
	return nil
}

func init() {
	pipeline.RegisterModelKind("ensemble", func(blob json.RawMessage) (pipeline.Model, error) {
		e := &Ensemble{}
		if err := json.Unmarshal(blob, e); err != nil {
			return nil, err
		}
		return e, nil
	})
}

// Of reaches through a deployed artifact to the live cascade, reporting
// false for solo-model artifacts — the health endpoint's introspection
// hook.
func Of(a *pipeline.Artifact) (*Ensemble, bool) {
	if a == nil || a.ModelKind != "ensemble" {
		return nil, false
	}
	m, err := a.LiveModel()
	if err != nil {
		return nil, false
	}
	e, ok := m.(*Ensemble)
	return e, ok
}
