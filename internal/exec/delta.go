package exec

import (
	"fmt"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// DeltaKind classifies how one aggregate call is maintained incrementally
// (DBToaster-style delta processing). Subtractable kinds undo an expired
// slice by subtracting its partial; every other aggregate is mergeable but
// has no inverse, so expiry re-merges the surviving per-slice partials
// instead (Fegaras's mergeable-partial maintenance, PAPERS.md).
type DeltaKind int

// Delta kinds: three subtractable, and one re-merged kind covering every
// other aggregate.
const (
	// DeltaCount subtracts the expired slice's row count.
	DeltaCount DeltaKind = iota
	// DeltaSum subtracts the expired slice's per-type sums.
	DeltaSum
	// DeltaAvg is the SUM+COUNT decomposition: both parts subtract.
	DeltaAvg
	// DeltaMerge wraps the aggregate's mergeable expr.Acc (min, max,
	// stddev, variance, first, last, and every DISTINCT form) and
	// re-merges surviving slice partials on expiry.
	DeltaMerge
)

// Subtractable reports whether retraction is an exact inverse (Sub), as
// opposed to requiring a re-merge of the surviving partials.
func (k DeltaKind) Subtractable() bool { return k != DeltaMerge }

// DeltaAcc is a retractable aggregate accumulator. Add and Result follow
// expr.Acc semantics exactly (same NULL handling, same numeric widening,
// same tie behavior), so a window maintained by deltas emits byte-identical
// results to re-executing the plan over the window's rows. Merge combines a
// partial of the same kind; Sub retracts one previously merged or added —
// only subtractable kinds support it.
type DeltaAcc interface {
	Add(v types.Datum) error
	Merge(o DeltaAcc) error
	Sub(o DeltaAcc) error
	Result() types.Datum
}

// NewDeltaAcc returns a fresh accumulator for the kind. The spec supplies
// count(*)'s star flag and, for DeltaMerge, the aggregate to wrap.
func NewDeltaAcc(k DeltaKind, spec expr.AggSpec) (DeltaAcc, error) {
	switch k {
	case DeltaCount:
		return &deltaCount{star: spec.Star}, nil
	case DeltaSum:
		return &deltaSum{}, nil
	case DeltaAvg:
		return &deltaAvg{}, nil
	case DeltaMerge:
		acc, err := expr.NewAcc(spec)
		if err != nil {
			return nil, err
		}
		return &deltaMerge{acc: acc}, nil
	}
	return nil, fmt.Errorf("exec: unknown delta kind %d", k)
}

// deltaCount maintains count(*) / count(x).
type deltaCount struct {
	star bool
	n    int64
}

func (a *deltaCount) Add(v types.Datum) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *deltaCount) Merge(o DeltaAcc) error {
	b, ok := o.(*deltaCount)
	if !ok {
		return deltaTypeErr(a, o)
	}
	a.n += b.n
	return nil
}

func (a *deltaCount) Sub(o DeltaAcc) error {
	b, ok := o.(*deltaCount)
	if !ok {
		return deltaTypeErr(a, o)
	}
	a.n -= b.n
	return nil
}

func (a *deltaCount) Result() types.Datum { return types.NewInt(a.n) }

// deltaSum maintains sum over ints, floats and intervals. expr's sumAcc
// tracks which input types it saw with sticky booleans; here those become
// per-type counts so retraction can undo them, while Result applies the
// same widening precedence (interval > float > int) and yields NULL when
// no non-NULL value remains in the window.
type deltaSum struct {
	nInt, nFloat, nIval int64
	i                   int64
	f                   float64
}

func (a *deltaSum) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	switch v.Type() {
	case types.TypeInt:
		a.nInt++
		a.i += v.Int()
		a.f += float64(v.Int())
	case types.TypeFloat:
		a.nFloat++
		a.f += v.Float()
	case types.TypeInterval:
		a.nIval++
		a.i += v.IntervalMicros()
	default:
		return fmt.Errorf("expr: sum over %s", v.Type())
	}
	return nil
}

func (a *deltaSum) Merge(o DeltaAcc) error {
	b, ok := o.(*deltaSum)
	if !ok {
		return deltaTypeErr(a, o)
	}
	a.nInt += b.nInt
	a.nFloat += b.nFloat
	a.nIval += b.nIval
	a.i += b.i
	a.f += b.f
	return nil
}

func (a *deltaSum) Sub(o DeltaAcc) error {
	b, ok := o.(*deltaSum)
	if !ok {
		return deltaTypeErr(a, o)
	}
	a.nInt -= b.nInt
	a.nFloat -= b.nFloat
	a.nIval -= b.nIval
	a.i -= b.i
	a.f -= b.f
	return nil
}

func (a *deltaSum) Result() types.Datum {
	switch {
	case a.nInt+a.nFloat+a.nIval == 0:
		return types.Null
	case a.nIval > 0:
		return types.NewIntervalMicros(a.i)
	case a.nFloat > 0:
		return types.NewFloat(a.f)
	default:
		return types.NewInt(a.i)
	}
}

// deltaAvg is avg's SUM+COUNT decomposition; both parts subtract exactly.
type deltaAvg struct {
	n int64
	f float64
}

func (a *deltaAvg) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	if !v.Type().Numeric() {
		return fmt.Errorf("expr: avg over %s", v.Type())
	}
	a.n++
	a.f += v.Float()
	return nil
}

func (a *deltaAvg) Merge(o DeltaAcc) error {
	b, ok := o.(*deltaAvg)
	if !ok {
		return deltaTypeErr(a, o)
	}
	a.n += b.n
	a.f += b.f
	return nil
}

func (a *deltaAvg) Sub(o DeltaAcc) error {
	b, ok := o.(*deltaAvg)
	if !ok {
		return deltaTypeErr(a, o)
	}
	a.n -= b.n
	a.f -= b.f
	return nil
}

func (a *deltaAvg) Result() types.Datum {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat(a.f / float64(a.n))
}

// deltaMerge adapts a mergeable expr.Acc. It has no inverse: Sub always
// errors, and slice expiry rebuilds the window value by merging the
// surviving per-slice partials in ascending slice order — which keeps the
// arrival-order behavior of direct evaluation (min/max ties, first/last,
// DISTINCT's first-seen order), because rows arrive in timestamp order.
type deltaMerge struct{ acc expr.Acc }

func (a *deltaMerge) Add(v types.Datum) error { return a.acc.Add(v) }

func (a *deltaMerge) Merge(o DeltaAcc) error {
	b, ok := o.(*deltaMerge)
	if !ok {
		return deltaTypeErr(a, o)
	}
	return a.acc.Merge(b.acc)
}

func (a *deltaMerge) Sub(o DeltaAcc) error {
	return fmt.Errorf("exec: %T has no retract form; re-merge surviving partials", a.acc)
}

func (a *deltaMerge) Result() types.Datum { return a.acc.Result() }

func deltaTypeErr(a, b DeltaAcc) error {
	return fmt.Errorf("exec: cannot combine %T into %T", b, a)
}
