package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"streamrel"
	"streamrel/internal/trace"
	"streamrel/internal/wal"
)

// archive: ingest of a firewall log in 64-row batches into an engine
// with a data directory, every batch written to the WAL before it is
// acknowledged. An APPEND channel archives the events into sec_events
// (B-tree index on src_ip), and a derived 10-second per-source deny count
// feeds the Active Table deny_now through a REPLACE channel. Two
// dashboards subscribe to deny counts per port and per source. An
// open-loop reader runs index point lookups and a top-10 over the Active
// Table beside the writes, so an ingest gain bought by starving readers
// shows. After the timed phase the engine is closed, its directory
// measured and reopened: WAL encode and write, transaction commit and
// heap/index inserts carry the work, and this is the only workload that
// exercises recovery.
//
// SyncWAL stays off in the timed rounds: sustained fsync traffic slows a
// shared virtual disk for minutes afterwards, which swamped every other
// figure of the run. The fsync cost of an acknowledged batch is measured
// by walProbe instead.
type archive struct {
	o      options
	in     *secEvents
	warm   int
	subs   []archiveSub
	denies []int64 // 10-second closes of deny_10s
	// denyTop[w] hashes the top-10 of deny_now after close w; denyAll[w]
	// is its full contents ordered by src_ip.
	denyTop []uint64
	denyAll [][]streamrel.Row
	// bySrc[s] lists the rows of source s; bytesBy[s] the prefix sums of
	// their bytes (for point-lookup bounds).
	bySrc   [][]int32
	bytesBy [][]int64
	lookups []int32
}

type archiveSub struct {
	sql    string
	closes []int64
	ref    []uint64
}

const (
	archiveBatch = 64
	// walProbeBatches is how many batches the fsync probe writes: about
	// 1000 fsyncs, a few megabytes.
	walProbeBatches = 1000
	archiveStepUS   = 2000 // 500 events per event-time second
	denyWindow      = 10_000_000
	subAdvance      = 1_000_000
)

const archiveDDL = `
CREATE STREAM sec_stream (etime timestamp CQTIME USER, src_ip varchar(16), dst_port bigint,
	action varchar(8), bytes bigint);
CREATE TABLE sec_events (etime timestamp, src_ip varchar(16), dst_port bigint,
	action varchar(8), bytes bigint);
CREATE INDEX sec_events_src ON sec_events (src_ip);
CREATE CHANNEL sec_archive FROM sec_stream INTO sec_events APPEND;
CREATE STREAM deny_10s AS SELECT src_ip, count(*) AS denials, cq_close(*) AS wend
	FROM sec_stream <VISIBLE '10 seconds' ADVANCE '10 seconds'>
	WHERE action = 'deny' GROUP BY src_ip;
CREATE TABLE deny_now (src_ip varchar(16), denials bigint, wend timestamp);
CREATE CHANNEL deny_ch FROM deny_10s INTO deny_now REPLACE`

const (
	lookupSQL  = `SELECT count(*) AS n, sum(bytes) AS b FROM sec_events WHERE src_ip = $1`
	topDenySQL = `SELECT src_ip, denials FROM deny_now ORDER BY denials DESC, src_ip LIMIT 10`
	allDenySQL = `SELECT src_ip, denials, wend FROM deny_now ORDER BY src_ip`
	totalsSQL  = `SELECT count(*) AS n, sum(bytes) AS b FROM sec_events`
)

func newArchive(o options) (workload, error) {
	// The warm-up spans one deny window.
	warm := 5120
	timed := scaled(o, 131_072, archiveBatch)
	a := &archive{o: o, in: genSecEvents(o.seed, warm+timed, archiveStepUS), warm: warm}
	in := a.in
	srcLess := func(x, y int32) bool { return srcName(x) < srcName(y) }
	a.subs = []archiveSub{
		{sql: `SELECT dst_port, count(*) AS denials FROM sec_stream
			<VISIBLE '10 seconds' ADVANCE '1 second'> WHERE action = 'deny'
			GROUP BY dst_port ORDER BY denials DESC, dst_port LIMIT 10`},
		{sql: `SELECT src_ip, count(*) AS denials FROM sec_stream
			<VISIBLE '10 seconds' ADVANCE '1 second'> WHERE action = 'deny'
			GROUP BY src_ip ORDER BY denials DESC, src_ip LIMIT 10`},
	}
	// Per-second deny counts by port and by source.
	first := in.ts[0] / subAdvance
	nSec := int(in.ts[len(in.ts)-1]/subAdvance-first) + 1
	byPort := make([][nPorts]int64, nSec)
	bySrc := make([][]int64, nSec)
	for s := range bySrc {
		bySrc[s] = make([]int64, nSources)
	}
	a.bySrc = make([][]int32, nSources)
	for i, ts := range in.ts {
		a.bySrc[in.src[i]] = append(a.bySrc[in.src[i]], int32(i))
		if in.deny[i] {
			byPort[ts/subAdvance-first][in.port[i]]++
			bySrc[ts/subAdvance-first][in.src[i]]++
		}
	}
	a.bytesBy = make([][]int64, nSources)
	for s, idx := range a.bySrc {
		sums := make([]int64, len(idx)+1)
		for j, i := range idx {
			sums[j+1] = sums[j] + in.bytes[i]
		}
		a.bytesBy[s] = sums
	}
	window := func(perSec func(sec int, add func(k int32, n int64)), size int, c, visible int64) []int64 {
		counts := make([]int64, size)
		hi := int(c/subAdvance - first)
		for s := max(0, hi-int(visible/subAdvance)); s < hi; s++ {
			perSec(s, func(k int32, n int64) { counts[k] += n })
		}
		return counts
	}
	ports := func(s int, add func(int32, int64)) {
		for p, n := range byPort[s] {
			add(int32(p), n)
		}
	}
	srcs := func(s int, add func(int32, int64)) {
		for k, n := range bySrc[s] {
			if n > 0 {
				add(int32(k), n)
			}
		}
	}
	for i := range a.subs {
		sub := &a.subs[i]
		sub.closes = closesUpTo(in.ts, subAdvance)
		for _, c := range sub.closes {
			var rows []streamrel.Row
			if i == 0 {
				rows = topK(window(ports, nPorts, c, denyWindow), 10, func(x, y int32) bool { return portOf(x) < portOf(y) },
					func(k int32) streamrel.Value { return streamrel.Int(portOf(k)) })
			} else {
				rows = topK(window(srcs, nSources, c, denyWindow), 10, srcLess,
					func(k int32) streamrel.Value { return streamrel.String(srcName(k)) })
			}
			sub.ref = append(sub.ref, hashBatch(c, rows))
		}
	}
	a.denies = closesUpTo(in.ts, denyWindow)
	for _, c := range a.denies {
		counts := window(srcs, nSources, c, denyWindow)
		a.denyTop = append(a.denyTop, hashBatch(0, topK(counts, 10, srcLess,
			func(k int32) streamrel.Value { return streamrel.String(srcName(k)) })))
		var all []streamrel.Row
		for k, n := range counts {
			if n > 0 {
				all = append(all, streamrel.Row{streamrel.String(srcName(int32(k))), streamrel.Int(n),
					streamrel.Timestamp(time.UnixMicro(c).UTC())})
			}
		}
		sort.Slice(all, func(x, y int) bool { return all[x][0].Str() < all[y][0].Str() })
		a.denyAll = append(a.denyAll, all)
	}
	a.lookups = make([]int32, 1<<14)
	for i, k := range lookupPlan(o.seed, len(a.lookups)) {
		a.lookups[i] = in.src[int(k)*len(in.src)/nURLs]
	}
	return a, nil
}

func (a *archive) timedRows() int { return len(a.in.rows) - a.warm }

// lookupBounds is the range of (count, sum(bytes)) a point lookup of
// source s may return when rows [0, lo) were acknowledged before it was
// sent and rows [0, hi) had been handed to the engine when it returned.
func (a *archive) lookupBounds(s int32, lo, hi int) (n0, n1, b0, b1 int64) {
	idx := a.bySrc[s]
	i0 := sort.Search(len(idx), func(j int) bool { return int(idx[j]) >= lo })
	i1 := sort.Search(len(idx), func(j int) bool { return int(idx[j]) >= hi })
	return int64(i0), int64(i1), a.bytesBy[s][i0], a.bytesBy[s][i1]
}

// firedBy is the index of the last deny window closed by rows [0, n),
// -1 for none.
func (a *archive) firedBy(n int) int {
	return sort.Search(len(a.denies), func(w int) bool { return firstAtOrAfter(a.in.ts, a.denies[w]) >= n }) - 1
}

func (a *archive) round(traced bool) *roundStats {
	r := newRound()
	dir, err := os.MkdirTemp(a.o.workdir, "archive-")
	if err != nil {
		return r.fail(err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	cfg := engineConfig(traced)
	cfg.Dir = dir
	e, err := streamrel.Open(cfg)
	if err != nil {
		return r.fail(err)
	}
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()
	if err := e.ExecScript(archiveDDL); err != nil {
		return r.fail(err)
	}
	cqs := make([]*streamrel.CQ, len(a.subs))
	for i, s := range a.subs {
		st := time.Now()
		if cqs[i], err = e.Subscribe(s.sql); err != nil {
			return r.fail(err)
		}
		r.add("streamrel.subscribe_us", usSince(st))
	}
	r.set("setup_s", time.Since(t0).Seconds())

	next := make([]int, len(cqs))
	corrupted := false
	consume := func(sent time.Time, timed bool) {
		for i, cq := range cqs {
			for _, b := range cq.Drain() {
				now := time.Now()
				k := next[i]
				next[i]++
				got := b.Rows
				if a.o.fault == faultCorruptBatch && timed && !corrupted {
					got, corrupted = corrupt(got), true
				}
				r.check(k < len(a.subs[i].ref) && hashBatch(b.Close.UnixMicro(), got) == a.subs[i].ref[k],
					"archive: subscription %d close %d differs from the reference", i, k)
				if timed {
					r.add("result_ms", float64(now.Sub(sent).Nanoseconds())/1e6)
				}
			}
		}
	}
	rows := a.in.rows
	// acked counts rows whose Append returned; handed counts rows whose
	// Append had started. The reader checks its results between them.
	var acked, handed atomic.Int64
	for lo := 0; lo < a.warm; lo += archiveBatch {
		handed.Store(int64(lo + archiveBatch))
		if !r.check(e.Append("sec_stream", rows[lo:lo+archiveBatch]...) == nil, "warm-up append failed") {
			return r
		}
		acked.Store(int64(lo + archiveBatch))
		consume(time.Now(), false)
	}

	before := gather(e.Metrics())
	mem := startMem()
	lg := startLoad(readInterval, func(k int) error {
		lo := int(acked.Load())
		if k%2 == 1 {
			res, err := e.Query(topDenySQL)
			if err != nil {
				return err
			}
			h := hashBatch(0, res.Data)
			for w := a.firedBy(lo); w <= a.firedBy(int(handed.Load())); w++ {
				if (w < 0 && len(res.Data) == 0) || (w >= 0 && h == a.denyTop[w]) {
					return nil
				}
			}
			return fmt.Errorf("deny_now top-10 matches no window fired between rows %d and %d", lo, handed.Load())
		}
		s := a.lookups[k%len(a.lookups)]
		res, err := e.QueryArgs(lookupSQL, streamrel.String(srcName(s)))
		if err != nil {
			return err
		}
		n0, n1, b0, b1 := a.lookupBounds(s, lo, int(handed.Load()))
		if len(res.Data) != 1 {
			return fmt.Errorf("lookup of %s returned %d rows", srcName(s), len(res.Data))
		}
		n := res.Data[0][0].Int()
		var b int64
		if n > 0 {
			b = res.Data[0][1].Int()
		}
		if n < n0 || n > n1 || b < b0 || b > b1 {
			return fmt.Errorf("lookup of %s: count %d sum %d outside [%d,%d] [%d,%d]", srcName(s), n, b, n0, n1, b0, b1)
		}
		return nil
	})
	var spans []appendSpan
	dropped := false
	start := time.Now()
	for lo := a.warm; lo < len(rows); lo += archiveBatch {
		batch := rows[lo : lo+archiveBatch]
		if a.o.fault == faultDropAckedRow && !dropped {
			batch, dropped = batch[1:], true
		}
		st := time.Now()
		handed.Store(int64(lo + archiveBatch))
		if traced {
			id := uint64(lo/archiveBatch + 1)
			err = e.AppendTraced(id, "sec_stream", batch...)
			spans = append(spans, appendSpan{id, st.UnixNano(), time.Now().UnixNano()})
		} else {
			err = e.Append("sec_stream", batch...)
		}
		r.add("streamrel.append_us", usSince(st))
		if !r.check(err == nil, "append: %v", err) {
			break
		}
		acked.Store(int64(lo + archiveBatch))
		consume(st, true)
	}
	ft := time.Now()
	r.check(e.Flush() == nil, "flush failed")
	r.set("streamrel.flush_ms", msSince(ft))
	r.set("ingest_rows_per_s", float64(a.timedRows())/time.Since(start).Seconds())
	lg.finish(r)
	mem.finish(r, a.timedRows())
	after := gather(e.Metrics())
	streamLayer(r, before, after, a.timedRows(), len(cqs)+1)
	r.set("wal.bytes_per_row", delta(before, after, "streamrel_wal_append_bytes_total")/float64(a.timedRows()))
	r.set("wal.group_commit_batches_mean", histMean(histDelta(before, after, "streamrel_wal_group_commit_batches", "", "")))
	for i := range cqs {
		r.check(next[i] == len(a.subs[i].ref), "archive: subscription %d delivered %d of %d closes", i, next[i], len(a.subs[i].ref))
	}
	if traced {
		spanSamples(r, e.Traces(), spans)
	}

	closed = true
	if !r.check(e.Close() == nil, "close failed") {
		return r
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return r.fail(err)
	}
	r.set("disk_bytes_per_row", float64(bytes)/float64(len(rows)))
	a.reopen(r, cfg)
	return r
}

// reopen reopens the closed data directory, times it, and checks that
// every acknowledged row and the final Active Table survived.
func (a *archive) reopen(r *roundStats, cfg streamrel.Config) {
	cfg.TraceSampleEvery = -1
	t0 := time.Now()
	e, err := streamrel.Open(cfg)
	if err != nil {
		r.fail(fmt.Errorf("reopen: %w", err))
		return
	}
	defer e.Close()
	r.set("streamrel.reopen_s", time.Since(t0).Seconds())
	res, err := e.Query(totalsSQL)
	if err != nil {
		r.fail(fmt.Errorf("first query after reopen: %w", err))
		return
	}
	r.set("recovery_s", time.Since(t0).Seconds())
	r.set("wal.replay_s", gather(e.Metrics()).sum("streamrel_recovery_replay_seconds"))
	var n, b int64
	for _, v := range a.in.bytes {
		b += v
	}
	n = int64(len(a.in.bytes))
	r.check(len(res.Data) == 1 && res.Data[0][0].Int() == n && res.Data[0][1].Int() == b,
		"archive: after reopen sec_events holds %v, want count %d sum %d", res.Data, n, b)
	all, err := e.Query(allDenySQL)
	if err != nil {
		r.fail(err)
		return
	}
	want := a.denyAll[len(a.denyAll)-1]
	r.check(hashBatch(0, all.Data) == hashBatch(0, want),
		"archive: after reopen deny_now holds %d rows, differing from the last window's %d", len(all.Data), len(want))
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func (a *archive) probes() (map[string]float64, error) {
	out := map[string]float64{}
	// The per-port dashboard's SELECT over exactly its last window.
	sub := a.subs[0]
	last := len(sub.closes) - 1
	c := sub.closes[last]
	lo, hi := firstAtOrAfter(a.in.ts, c-denyWindow), firstAtOrAfter(a.in.ts, c)
	q := `SELECT dst_port, count(*) AS denials FROM win_scratch WHERE action = 'deny'
		GROUP BY dst_port ORDER BY denials DESC, dst_port LIMIT 10`
	us, err := windowQuery(`CREATE TABLE win_scratch (etime timestamp, src_ip varchar(16),
		dst_port bigint, action varchar(8), bytes bigint)`, a.in.rows[lo:hi], q,
		func(rows []streamrel.Row) bool { return hashBatch(c, rows) == sub.ref[last] })
	if err != nil {
		return nil, err
	}
	out["exec.window_query_us_p50"] = us
	texts := []string{lookupSQL, topDenySQL}
	for _, s := range a.subs {
		texts = append(texts, s.sql)
	}
	if out["sql.parse_us_p50"], err = parseP50(texts); err != nil {
		return nil, err
	}
	return out, a.walProbe(out)
}

// walProbe feeds the archive channel's inserts, batch by batch, to
// wal.EncodeRecords and then to a synced write-ahead log of its own,
// whose spans give the write and fsync time of an acknowledged batch.
func (a *archive) walProbe(out map[string]float64) error {
	dir, err := os.MkdirTemp(a.o.workdir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tr := trace.New(trace.Options{SampleEvery: 1, RingSpans: traceRing})
	l, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{Sync: true, Trace: tr})
	if err != nil {
		return err
	}
	defer l.Close()
	var enc []float64
	for lo := a.warm; lo+archiveBatch <= len(a.in.rows) && len(enc) < walProbeBatches; lo += archiveBatch {
		recs := make([]wal.Record, archiveBatch)
		for i := range recs {
			recs[i] = wal.Record{Kind: wal.RecInsert, Table: "sec_events", Row: a.in.rows[lo+i], RowID: uint64(lo + i + 1)}
		}
		enc = append(enc, timeIt(func() { wal.EncodeRecords(recs) }))
		if err := l.AppendCtx(trace.Ctx{ID: uint64(len(enc))}, recs); err != nil {
			return err
		}
	}
	out["wal.encode_us_per_batch"] = quantile(enc, 0.5)
	r := newRound()
	spanSamples(r, tr.Snapshot(), nil)
	out["wal.fsync_us_p50"] = quantile(r.smp["span.wal_fsync_us"], 0.50)
	out["wal.fsync_us_p99"] = quantile(r.smp["span.wal_fsync_us"], 0.99)
	return nil
}
