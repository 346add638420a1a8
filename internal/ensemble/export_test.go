package ensemble

import "prodigy/internal/pipeline"

// SetMemberDelayForTest installs a hook that runs before each fleet
// member's Scores call — the completion-order determinism tests use it
// to force members to finish in arbitrary orders.
func (e *Ensemble) SetMemberDelayForTest(fn func(kind string)) { e.memberDelay = fn }

// TrainArmedForTest is Train with arm applied to the cascade right after
// it is assembled, before it calibrates and sets its threshold.
func TrainArmedForTest(opts TrainOptions, arm func(*Ensemble)) (*pipeline.Artifact, error) {
	return train(opts, arm)
}

// ModelsActiveForTest reads the ensemble_models_active gauge.
func ModelsActiveForTest() float64 { return modelsActive.Value() }
