package anomaly

import (
	"jarvis/internal/env"
	"jarvis/internal/trace"
)

// ScoreTraced is Score under an "anomaly.score" child span annotated with
// the resulting anomaly probability. A nil span adds one nil check, so
// untraced callers (ROC sweeps, training) keep using Score directly.
func (f *Filter) ScoreTraced(sp *trace.Span, tr env.Transition) float64 {
	child := sp.Child("anomaly.score")
	score := f.Score(tr)
	if child != nil {
		child.AnnotateFloat("score", score)
		child.AnnotateFloat("threshold", f.threshold)
		child.End()
	}
	return score
}
