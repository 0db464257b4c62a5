package streamrel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSystemCQTime: CQTIME SYSTEM streams ignore user-supplied timestamps
// and stamp arrival time, monotonically.
func TestSystemCQTime(t *testing.T) {
	clock := MustTimestamp("2009-01-04 12:00:00")
	e, err := Open(Config{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	cq, err := e.Subscribe(`SELECT v, at FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	// The user-supplied timestamp (deliberately ancient) must be replaced
	// by the engine clock.
	if err := e.Append("s", Row{Int(1), Timestamp(MustTimestamp("1999-01-01 00:00:00"))}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	if err := e.Append("s", Row{Int(2), Null}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Minute)
	if err := e.AdvanceTime("s", clock); err != nil {
		t.Fatal(err)
	}
	b, ok := cq.TryNext()
	if !ok || len(b.Rows) != 2 {
		t.Fatalf("batch: %+v ok=%v", b, ok)
	}
	if got := b.Rows[0][1].Time(); got.Format("2006-01-02 15:04:05") != "2009-01-04 12:00:00" {
		t.Fatalf("row 0 stamped %v", got)
	}
	if got := b.Rows[1][1].Time(); got.Format("15:04:05") != "12:00:30" {
		t.Fatalf("row 1 stamped %v", got)
	}
}

// TestSystemCQTimeMonotonic: a clock that goes backwards must not produce
// out-of-order stamps.
func TestSystemCQTimeMonotonic(t *testing.T) {
	clock := MustTimestamp("2009-01-04 12:00:00")
	e, err := Open(Config{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	if err := e.Append("s", Row{Int(1), Null}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(-time.Hour) // NTP step backwards
	if err := e.Append("s", Row{Int(2), Null}); err != nil {
		t.Fatalf("monotonic stamping should absorb clock regressions: %v", err)
	}
}

// TestSystemCQTimeConcurrentAppends: concurrent appenders to one CQTIME
// SYSTEM stream never see an out-of-order error — the arrival stamp is
// taken under the stream's own lock, so stamping order is delivery order.
func TestSystemCQTimeConcurrentAppends(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	var failed atomic.Int64
	var firstErr atomic.Value
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := e.Append("s", Row{Int(int64(w*perWriter + i)), Null}); err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent appends failed; first: %v", n, writers*perWriter, firstErr.Load())
	}
	if got := gatherMap(e)[`streamrel_stream_rows_total{stream="s"}`]; got == nil || got.Value != writers*perWriter {
		t.Fatalf("streamrel_stream_rows_total = %+v, want %d", got, writers*perWriter)
	}
}

// TestSystemCQTimeHeartbeatAhead: a heartbeat ahead of the engine clock
// on a CQTIME SYSTEM stream does not make the next append fail; the row
// is stamped at the heartbeat (the stream's high-water mark).
func TestSystemCQTimeHeartbeatAhead(t *testing.T) {
	clock := MustTimestamp("2009-01-04 12:00:00")
	e, err := Open(Config{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	cq, err := e.Subscribe(`SELECT v, at FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	ahead := clock.Add(time.Hour)
	if err := e.AdvanceTime("s", ahead); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("s", Row{Int(1), Null}); err != nil {
		t.Fatalf("append after a heartbeat ahead of the clock: %v", err)
	}
	if err := e.AdvanceTime("s", ahead.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	b, ok := cq.TryNext()
	if !ok || len(b.Rows) != 1 {
		t.Fatalf("batch: %+v ok=%v", b, ok)
	}
	if got := b.Rows[0][1].Time(); !got.Equal(ahead) {
		t.Fatalf("row stamped %v, want the heartbeat %v", got, ahead)
	}
}

// TestLateRowPolicies exercises the three disorder policies.
func TestLateRowPolicies(t *testing.T) {
	base := MustTimestamp("2009-01-04 00:00:00")
	late := Row{Int(99), Timestamp(base.Add(-time.Minute))}
	onTime := Row{Int(1), Timestamp(base)}

	// Reject (default): error.
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	if err := e.Append("s", onTime); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("s", late); err == nil {
		t.Fatal("reject policy should error")
	}

	// Drop: silently discarded, counted.
	eDrop, err := Open(Config{LateRows: LateDrop})
	if err != nil {
		t.Fatal(err)
	}
	defer eDrop.Close()
	mustExec(t, eDrop, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, _ := eDrop.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	defer cq.Close()
	if err := eDrop.Append("s", onTime); err != nil {
		t.Fatal(err)
	}
	if err := eDrop.Append("s", late); err != nil {
		t.Fatal(err)
	}
	eDrop.AdvanceTime("s", base.Add(time.Minute))
	b, _ := cq.TryNext()
	if b.Rows[0][0].Int() != 1 {
		t.Fatalf("dropped row was counted: %v", b.Rows)
	}
	if eDrop.Stats().LateDropped != 1 {
		t.Fatalf("LateDropped = %d", eDrop.Stats().LateDropped)
	}

	// Clamp: the row lands in the current window.
	eClamp, err := Open(Config{LateRows: LateClamp})
	if err != nil {
		t.Fatal(err)
	}
	defer eClamp.Close()
	mustExec(t, eClamp, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq2, _ := eClamp.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	defer cq2.Close()
	if err := eClamp.Append("s", onTime); err != nil {
		t.Fatal(err)
	}
	if err := eClamp.Append("s", late); err != nil {
		t.Fatal(err)
	}
	eClamp.AdvanceTime("s", base.Add(time.Minute))
	b2, _ := cq2.TryNext()
	if b2.Rows[0][0].Int() != 2 {
		t.Fatalf("clamped row missing: %v", b2.Rows)
	}
}
