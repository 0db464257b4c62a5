package plan

import (
	"streamrel/internal/exec"
	"streamrel/internal/sql"
)

// DeltaProgram reports whether this plan qualifies for incremental view
// maintenance and, when it does, how each aggregate is maintained. A plan
// qualifies when it is a filter/project/group-by aggregate directly over
// one time-windowed stream (the StreamAgg shape) whose VISIBLE is a
// multiple of ADVANCE; every aggregate then qualifies. COUNT/SUM/AVG
// (without DISTINCT; AVG decomposes into SUM+COUNT) subtract expired
// slices; all others — MIN/MAX, STDDEV/VARIANCE, FIRST/LAST and every
// DISTINCT form — keep mergeable per-slice partials re-merged on expiry.
// The returned reason is non-empty exactly when the plan must fall back to
// re-execution; EXPLAIN surfaces it.
func (p *Plan) DeltaProgram() ([]exec.DeltaKind, string) {
	if p.Stream == nil {
		return nil, "not a continuous query"
	}
	if p.StreamAgg == nil {
		return nil, "plan is not a filter/group-by aggregate directly over the stream"
	}
	w := p.Stream.Window
	if w.Kind != sql.WindowTime {
		return nil, "window is not a time window"
	}
	if w.Visible <= 0 || w.Advance <= 0 || w.Visible%w.Advance != 0 {
		return nil, "VISIBLE is not a multiple of ADVANCE"
	}
	kinds := make([]exec.DeltaKind, len(p.StreamAgg.Aggs))
	for i, a := range p.StreamAgg.Aggs {
		switch {
		case a.Distinct:
			kinds[i] = exec.DeltaMerge
		case a.Name == "count":
			kinds[i] = exec.DeltaCount
		case a.Name == "sum":
			kinds[i] = exec.DeltaSum
		case a.Name == "avg":
			kinds[i] = exec.DeltaAvg
		default:
			kinds[i] = exec.DeltaMerge
		}
	}
	return kinds, ""
}
