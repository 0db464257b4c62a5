package streamrel

import (
	"strings"
	"sync"
	"testing"
	"time"

	"streamrel/internal/metrics"
)

// gatherMap flattens the engine's registry into sample-ID → Sample.
func gatherMap(e *Engine) map[string]*metrics.Sample {
	out := map[string]*metrics.Sample{}
	for _, s := range e.Metrics().Gather() {
		out[s.ID()] = s
	}
	return out
}

// TestEngineMetricsEndToEnd drives a durable engine through ingest,
// window fires, a checkpoint and recovery, then checks that every
// subsystem's series is present and non-zero in both Gather and the
// Prometheus text rendering.
func TestEngineMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE TABLE tt (a bigint)`)
	mustExec(t, e, `INSERT INTO tt VALUES (1), (2)`)
	cq, err := e.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < 20; i++ {
		if err := e.Append("s", Row{Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AdvanceTime("s", base.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cq.Next(); !ok {
		t.Fatal("no window batch")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	m := gatherMap(e)
	for id, wantCount := range map[string]bool{
		`streamrel_stream_rows_total{stream="s"}`:   false,
		`streamrel_wal_appends_total`:               false,
		`streamrel_wal_append_bytes_total`:          false,
		`streamrel_wal_fsync_seconds`:               true,
		`streamrel_checkpoint_seconds`:              true,
		`streamrel_window_fire_seconds{stream="s"}`: true,
		`streamrel_stream_sources`:                  false,
		`streamrel_stream_pipelines`:                false,
	} {
		s, ok := m[id]
		if !ok {
			t.Errorf("missing series %s", id)
			continue
		}
		if wantCount && s.Count == 0 {
			t.Errorf("%s: histogram count = 0", id)
		}
		if !wantCount && s.Value == 0 {
			t.Errorf("%s: value = 0", id)
		}
	}

	// The Prometheus rendering carries the same series, with cumulative
	// buckets for the fsync histogram.
	var b strings.Builder
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE streamrel_wal_fsync_seconds histogram",
		`streamrel_wal_fsync_seconds_bucket{le="+Inf"}`,
		"streamrel_wal_fsync_seconds_count",
		`streamrel_stream_rows_total{stream="s"} 20`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	cq.Close()
	e.Close()

	// Reopen: recovery replay time lands in a gauge.
	e2, err := Open(Config{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, ok := gatherMap(e2)["streamrel_recovery_replay_seconds"]; !ok {
		t.Error("missing streamrel_recovery_replay_seconds after reopen")
	}
}

// TestStatsSnapshotInvariant hammers a row-window CQ from concurrent
// appenders while a reader polls Stats; every per-pipeline snapshot must
// satisfy windowsFired*advance <= rowsSeen (a fire can only be proven by
// rows already counted — see Pipeline.statsSnapshot).
func TestStatsSnapshotInvariant(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	const advance = 50
	cq, err := e.Subscribe(`SELECT count(*) FROM s <VISIBLE 100 ROWS ADVANCE 50 ROWS>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	base := MustTimestamp("2009-01-04 00:00:00")
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// All rows share one timestamp: streams are ordered on
			// CQTIME, and row windows advance on counts, not time.
			for i := 0; i < perWriter; i++ {
				if err := e.Append("s", Row{Int(int64(i)), Timestamp(base)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			st := e.Stats()
			for _, p := range st.PerPipeline {
				if p.WindowsFired*advance > p.RowsSeen {
					t.Errorf("pipeline %s/%d: windowsFired=%d × advance=%d > rowsSeen=%d",
						p.Stream, p.ID, p.WindowsFired, advance, p.RowsSeen)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	st := e.Stats()
	if st.RowsProcessed < writers*perWriter {
		t.Fatalf("RowsProcessed = %d, want >= %d", st.RowsProcessed, writers*perWriter)
	}
	if st.WindowsFired == 0 {
		t.Fatal("no windows fired")
	}
}

// TestExplainAnalyze checks the instrumented-executor output: one line
// per operator with row counts, and a clean error for continuous plans.
func TestExplainAnalyze(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint, b varchar)`)
	mustExec(t, e, `INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z')`)
	res := mustExec(t, e, `EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1 ORDER BY a`)
	text := strings.Join(rowStrings(res.Rows), "\n")
	for _, want := range []string{
		"Snapshot Query (SQ): executed",
		"Sort", "Project", "Filter", "SeqScan  (rows=3",
		"output: 2 rows",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q in:\n%s", want, text)
		}
	}

	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	_, err := e.Exec(`EXPLAIN ANALYZE SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("want snapshot-only error, got %v", err)
	}
}

// TestFailedPipelineReleasesGauges: a pipeline whose window state fails
// on a row is stopped, not only detached, in every execution mode — its
// streamrel_ivm_state_* gauges must not outlive the failure.
func TestFailedPipelineReleasesGauges(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"inline", Config{}},
		{"inline-unshared", Config{DisablePlanSharing: true}},
		{"parallel", Config{ParallelCQ: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			mustExec(t, e, `CREATE STREAM s (k bigint, v bigint, at timestamp CQTIME USER)`)
			cq, err := e.Subscribe(`SELECT k, sum(sqrt(v)) FROM s <VISIBLE '1 minute' ADVANCE '1 minute'> GROUP BY k`)
			if err != nil {
				t.Fatal(err)
			}
			ivmSeries := func() []string {
				var ids []string
				for id := range gatherMap(e) {
					if strings.HasPrefix(id, "streamrel_ivm_state_") {
						ids = append(ids, id)
					}
				}
				return ids
			}
			if len(ivmSeries()) == 0 {
				t.Fatal("no streamrel_ivm_state_* series for an incremental CQ")
			}
			base := MustTimestamp("2009-01-04 00:00:00")
			appendErr := e.Append("s", Row{Int(1), Int(-1), Timestamp(base)})
			flushErr := e.Flush()
			if appendErr == nil && flushErr == nil {
				t.Fatal("sqrt of a negative value surfaced no error")
			}
			if ids := ivmSeries(); len(ids) != 0 {
				t.Fatalf("failed pipeline still exports %v", ids)
			}
			cq.Close()
			if ids := ivmSeries(); len(ids) != 0 {
				t.Fatalf("failed pipeline still exports %v after CQ.Close", ids)
			}
		})
	}
}
