package exec

import (
	"testing"
	"time"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

func newDelta(t *testing.T, k DeltaKind, spec expr.AggSpec) DeltaAcc {
	t.Helper()
	a, err := NewDeltaAcc(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustAdd(t *testing.T, a DeltaAcc, vs ...types.Datum) {
	t.Helper()
	for _, v := range vs {
		if err := a.Add(v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaCount covers star vs column semantics and exact retraction.
func TestDeltaCount(t *testing.T) {
	star := newDelta(t, DeltaCount, expr.AggSpec{Star: true})
	col := newDelta(t, DeltaCount, expr.AggSpec{})
	for _, a := range []DeltaAcc{star, col} {
		mustAdd(t, a, types.NewInt(1), types.Null, types.NewInt(2))
	}
	if got := star.Result(); got.Int() != 3 {
		t.Errorf("count(*) = %v, want 3", got)
	}
	if got := col.Result(); got.Int() != 2 {
		t.Errorf("count(x) = %v, want 2 (NULL skipped)", got)
	}

	// Retract a slice partial: count drops by the slice's contribution.
	slice := newDelta(t, DeltaCount, expr.AggSpec{Star: true})
	mustAdd(t, slice, types.NewInt(1), types.NewInt(2))
	if err := star.Sub(slice); err != nil {
		t.Fatal(err)
	}
	if got := star.Result(); got.Int() != 1 {
		t.Errorf("after Sub: %v, want 1", got)
	}
}

// TestDeltaSumWidening checks that retraction also retracts the type
// widening: a window that saw a float keeps reporting float sums only
// while a float remains visible, exactly like re-running expr.sumAcc
// over the surviving rows.
func TestDeltaSumWidening(t *testing.T) {
	w := newDelta(t, DeltaSum, expr.AggSpec{})
	sliceInt := newDelta(t, DeltaSum, expr.AggSpec{})
	sliceFloat := newDelta(t, DeltaSum, expr.AggSpec{})
	mustAdd(t, sliceInt, types.NewInt(3), types.NewInt(4))
	mustAdd(t, sliceFloat, types.NewFloat(1.5))
	if err := w.Merge(sliceInt); err != nil {
		t.Fatal(err)
	}
	if err := w.Merge(sliceFloat); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.Type() != types.TypeFloat || got.Float() != 8.5 {
		t.Fatalf("mixed sum = %v, want float 8.5", got)
	}
	// Expire the float slice: the window holds only ints again, so the
	// sum must narrow back to an integer — sticky-boolean state can't do
	// this; per-type counts can.
	if err := w.Sub(sliceFloat); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.Type() != types.TypeInt || got.Int() != 7 {
		t.Fatalf("after float retract = %v (%s), want int 7", got, got.Type())
	}
	// Expire the int slice too: empty window sums to NULL.
	if err := w.Sub(sliceInt); err != nil {
		t.Fatal(err)
	}
	if !w.Result().IsNull() {
		t.Fatalf("empty sum = %v, want NULL", w.Result())
	}
}

// TestDeltaSumInterval pins the interval branch: intervals win the
// widening precedence and retract exactly.
func TestDeltaSumInterval(t *testing.T) {
	w := newDelta(t, DeltaSum, expr.AggSpec{})
	slice := newDelta(t, DeltaSum, expr.AggSpec{})
	mustAdd(t, w, types.NewInterval(2*time.Second))
	mustAdd(t, slice, types.NewInterval(500*time.Millisecond))
	if err := w.Merge(slice); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.Type() != types.TypeInterval || got.IntervalMicros() != 2_500_000 {
		t.Fatalf("interval sum = %v, want 2.5s", got)
	}
	if err := w.Sub(slice); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.IntervalMicros() != 2_000_000 {
		t.Fatalf("after retract = %v, want 2s", got)
	}
	if err := w.Add(types.NewString("x")); err == nil {
		t.Fatal("sum over varchar should error")
	}
}

// TestDeltaAvg checks the SUM+COUNT decomposition, NULL inputs, and the
// NULL result over an empty window.
func TestDeltaAvg(t *testing.T) {
	w := newDelta(t, DeltaAvg, expr.AggSpec{})
	slice := newDelta(t, DeltaAvg, expr.AggSpec{})
	mustAdd(t, w, types.NewInt(1), types.Null, types.NewInt(2))
	mustAdd(t, slice, types.NewFloat(6))
	if err := w.Merge(slice); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.Float() != 3 {
		t.Fatalf("avg = %v, want 3", got)
	}
	if err := w.Sub(slice); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.Float() != 1.5 {
		t.Fatalf("after retract = %v, want 1.5", got)
	}
	empty := newDelta(t, DeltaAvg, expr.AggSpec{})
	if !empty.Result().IsNull() {
		t.Fatal("avg over empty window should be NULL")
	}
	if err := w.Add(types.NewString("x")); err == nil {
		t.Fatal("avg over varchar should error")
	}
}

// TestDeltaMinMax checks min/max through DeltaMerge: merge order
// independence for values, the explicit Sub error, and NULL handling.
func TestDeltaMinMax(t *testing.T) {
	min := newDelta(t, DeltaMerge, expr.AggSpec{Name: "min"})
	max := newDelta(t, DeltaMerge, expr.AggSpec{Name: "max"})
	for _, a := range []DeltaAcc{min, max} {
		mustAdd(t, a, types.NewInt(5), types.Null, types.NewInt(2), types.NewInt(9))
	}
	if got := min.Result(); got.Int() != 2 {
		t.Errorf("min = %v, want 2", got)
	}
	if got := max.Result(); got.Int() != 9 {
		t.Errorf("max = %v, want 9", got)
	}
	if err := min.Sub(max); err == nil {
		t.Fatal("min/max Sub must refuse: no retract form")
	}
	// Re-merge path used on slice expiry: combining surviving partials
	// reproduces the window value; an empty partial is a no-op.
	survivor := newDelta(t, DeltaMerge, expr.AggSpec{Name: "max"})
	mustAdd(t, survivor, types.NewInt(7))
	rebuilt := newDelta(t, DeltaMerge, expr.AggSpec{Name: "max"})
	if err := rebuilt.Merge(survivor); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Merge(newDelta(t, DeltaMerge, expr.AggSpec{Name: "max"})); err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Result(); got.Int() != 7 {
		t.Errorf("rebuilt max = %v, want 7", got)
	}
	if err := rebuilt.Add(types.NewString("x")); err == nil {
		t.Fatal("min/max over mixed types should error")
	}
	if !newDelta(t, DeltaMerge, expr.AggSpec{Name: "min"}).Result().IsNull() {
		t.Fatal("min over empty window should be NULL")
	}
}

// TestDeltaKindMismatch: combining different kinds is a bug and must
// error rather than corrupt state.
func TestDeltaKindMismatch(t *testing.T) {
	c := newDelta(t, DeltaCount, expr.AggSpec{Star: true})
	s := newDelta(t, DeltaSum, expr.AggSpec{})
	if err := c.Merge(s); err == nil {
		t.Fatal("count.Merge(sum) should error")
	}
	if err := s.Sub(c); err == nil {
		t.Fatal("sum.Sub(count) should error")
	}
}

// TestDeltaSubtractable pins which kinds claim an exact inverse.
func TestDeltaSubtractable(t *testing.T) {
	for k, want := range map[DeltaKind]bool{
		DeltaCount: true, DeltaSum: true, DeltaAvg: true,
		DeltaMerge: false,
	} {
		if k.Subtractable() != want {
			t.Errorf("kind %d Subtractable = %v, want %v", k, k.Subtractable(), want)
		}
	}
}

// TestDeltaMergeArrivalOrder: re-merging slice partials in slice order
// reproduces direct evaluation for the order-sensitive aggregates that
// DeltaMerge wraps — first/last and DISTINCT's first-seen order.
func TestDeltaMergeArrivalOrder(t *testing.T) {
	slices := [][]types.Datum{
		{types.NewInt(3), types.NewInt(1), types.NewInt(3)},
		{types.NewInt(2), types.NewInt(1), types.NewInt(4)},
		{types.NewInt(4), types.NewInt(5)},
	}
	for _, spec := range []expr.AggSpec{
		{Name: "first", Distinct: true}, {Name: "last", Distinct: true},
		{Name: "first"}, {Name: "last"}, {Name: "count", Distinct: true},
		{Name: "variance"}, {Name: "stddev", Distinct: true},
	} {
		direct := newDelta(t, DeltaMerge, spec)
		merged := newDelta(t, DeltaMerge, spec)
		for _, vs := range slices {
			mustAdd(t, direct, vs...)
			part := newDelta(t, DeltaMerge, spec)
			mustAdd(t, part, vs...)
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := merged.Result(), direct.Result(); types.Compare(got, want) != 0 {
			t.Errorf("%s distinct=%v: merged %v, direct %v", spec.Name, spec.Distinct, got, want)
		}
	}
	if _, err := NewDeltaAcc(DeltaMerge, expr.AggSpec{Name: "median"}); err == nil {
		t.Fatal("unknown aggregate should not build a DeltaMerge")
	}
}
