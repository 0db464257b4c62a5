package exec

import (
	"sort"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// HashAgg implements grouped aggregation. Its output rows are the group
// key values followed by one column per aggregate, which is the layout
// the planner's post-aggregation expressions are rewritten against.
// Incrementally maintained continuous queries keep the same layout in
// per-group delta state instead (internal/ivm).
type HashAgg struct {
	Child   Operator
	GroupBy []*expr.Scalar
	Aggs    []expr.AggSpec
	// SortedOutput makes group iteration deterministic (keyed order);
	// used when no explicit ORDER BY will run above.
	SortedOutput bool

	rows []types.Row
	pos  int
}

// Open implements Operator: the aggregation is computed eagerly.
func (h *HashAgg) Open(ctx *Ctx) error {
	h.rows = nil
	h.pos = 0
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	defer h.Child.Close()

	type group struct {
		keys types.Row
		accs []expr.Acc
	}
	groups := make(map[string]*group)
	var order []string

	// Pull whole chunks when the child supports it, hoist one expression
	// context per chunk, and evaluate group keys into a scratch row that
	// is cloned only when a new group is born — most rows hit an existing
	// group, so the steady state allocates nothing per row but the key.
	ec := expr.Ctx{WindowClose: ctx.WindowClose, Now: ctx.Now}
	scratch := make(types.Row, len(h.GroupBy))
	var inBuf []types.Row
	for {
		batch, err := nextBatch(h.Child, &inBuf)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			ec.Row = row
			for i, g := range h.GroupBy {
				if scratch[i], err = g.Eval(&ec); err != nil {
					return err
				}
			}
			k := scratch.Key()
			grp, ok := groups[k]
			if !ok {
				grp = &group{keys: scratch.Clone()}
				grp.accs = make([]expr.Acc, len(h.Aggs))
				for i, spec := range h.Aggs {
					if grp.accs[i], err = expr.NewAcc(spec); err != nil {
						return err
					}
				}
				groups[k] = grp
				order = append(order, k)
			}
			for i, spec := range h.Aggs {
				v := types.True // count(*) placeholder
				if spec.Arg != nil {
					if v, err = spec.Arg.Eval(&ec); err != nil {
						return err
					}
				}
				if err := grp.accs[i].Add(v); err != nil {
					return err
				}
			}
		}
	}

	// SQL scalar aggregate: no GROUP BY and empty input still yields one
	// row of aggregate defaults.
	if len(groups) == 0 && len(h.GroupBy) == 0 {
		accs := make([]expr.Acc, len(h.Aggs))
		for i, spec := range h.Aggs {
			var err error
			if accs[i], err = expr.NewAcc(spec); err != nil {
				return err
			}
		}
		groups[""] = &group{accs: accs}
		order = append(order, "")
	}

	for _, k := range order {
		grp := groups[k]
		out := make(types.Row, 0, len(grp.keys)+len(grp.accs))
		out = append(out, grp.keys...)
		for _, acc := range grp.accs {
			out = append(out, acc.Result())
		}
		h.rows = append(h.rows, out)
	}
	if h.SortedOutput && len(h.GroupBy) > 0 {
		nk := len(h.GroupBy)
		sort.SliceStable(h.rows, func(i, j int) bool {
			return types.CompareRows(h.rows[i][:nk], h.rows[j][:nk]) < 0
		})
	}
	return nil
}

// Next implements Operator.
func (h *HashAgg) Next() (types.Row, error) {
	if h.pos >= len(h.rows) {
		return nil, nil
	}
	r := h.rows[h.pos]
	h.pos++
	return r, nil
}

// Close implements Operator.
func (h *HashAgg) Close() error { h.rows = nil; return nil }
