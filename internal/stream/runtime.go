// Package stream implements the continuous-query runtime: stream sources,
// window processing ("windows produce a sequence of tables", paper Fig. 1),
// derived streams, channels into Active Tables, and incrementally
// maintained windowed aggregation shared across continuous queries (paper
// refs [4],[12]).
//
// Execution model: stream time is driven by data (CQTIME values) and by
// explicit heartbeats. Sources require non-decreasing timestamps; when
// time reaches a window boundary, the window's rows are materialized as a
// relation and the query plan — the same iterator operators used by
// snapshot queries — runs over it under a fresh MVCC snapshot (window
// consistency, paper §4).
//
// Concurrency: the runtime keeps a read-mostly source registry behind an
// RWMutex, and each source carries its own mutex, so pushes to distinct
// streams never contend. Within one source, every push, heartbeat and
// derived emission takes one delivery path, and a single per-source
// decision (source.inline) says whether the producer applies it to the
// pipelines itself or enqueues it. Without SetParallel there is no
// scheduler and every delivery is inline: each pipeline runs on the
// pushing goroutine in subscription order, which makes whole-engine
// execution deterministic. With SetParallel, each pipeline gets a bounded
// mailbox of micro-batches (blocking backpressure on producers) drained
// by a work-stealing scheduler: a GOMAXPROCS-sized pool of workers with
// per-worker deques and steal-half rebalancing, so 10k mostly idle
// pipelines cost 10k mailboxes, not 10k goroutines. A source whose single
// subscriber is idle still delivers inline, skipping the queue hand-off.
// A mailbox is executed by at most one worker at a time and rows for a
// given pipeline are still applied in arrival order, so per-CQ results
// are identical to the synchronous mode, while fan-out to N continuous
// queries uses up to GOMAXPROCS cores instead of one.
//
// On top of delivery, plan-level sharing (SetPlanSharing) folds continuous
// queries whose canonical plans are identical — or subsumed, differing
// only in residual filters/projections hoisted past the aggregate — into
// one host pipeline that owns the window state; subscribers receive the
// host's fires through per-shape post stages (see planshare.go).
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/metrics"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// Sink receives the rows produced by one window close of a continuous
// query, together with the trace context of the sampled batch that
// proved the window complete (the zero Ctx when none was sampled) — so
// downstream hops (channel WAL writes, derived-stream deliveries) join
// the same span chain. In parallel mode a sink runs on whichever
// scheduler worker is executing its pipeline's mailbox; it must not call
// back into the pipeline's own stream.
type Sink func(tc trace.Ctx, closeTS int64, rows []types.Row) error

// LatePolicy decides what happens to a row whose timestamp precedes the
// stream's high-water mark. The paper's streams are "ordered on an
// attribute"; real feeds occasionally violate that, so deployments choose
// a policy.
type LatePolicy uint8

// Late-row policies.
const (
	// LateReject returns an error to the producer (default: disorder is a
	// bug in the feed).
	LateReject LatePolicy = iota
	// LateDrop silently discards late rows, counting them in Stats.
	LateDrop
	// LateClamp advances the row's timestamp to the high-water mark so it
	// lands in the current window.
	LateClamp
)

// ErrClosed is returned by pushes, heartbeats, taps and subscriptions
// after Close.
var ErrClosed = errors.New("stream: runtime is closed")

// Runtime owns every stream source and continuous query.
//
// Locking order: Runtime.mu (registry) is never held while a source mutex
// is taken for delivery; source mutexes are acquired one at a time except
// through derived-stream emission, where the producer-side lock of the
// derived source is taken while an upstream source's lock (or worker) is
// active. Derived streams form a DAG, so that ordering is acyclic.
type Runtime struct {
	mu      sync.RWMutex // guards sources map and closed flag
	sources map[string]*source
	closed  bool

	mgr *txn.Manager
	// ivm enables incremental view maintenance: delta-eligible pipelines
	// maintain materialized per-group aggregates and fire from state.
	ivm bool
	// planShare enables plan-level sharing — the paper's "Jellybean"
	// shared processing: CQs with identical (or subsumed) canonical plans
	// subscribe to one shared host pipeline instead of spawning their own
	// (see planshare.go). Hosts keep incremental state, so it only takes
	// effect together with ivm.
	planShare bool
	// parallel is the per-pipeline mailbox backpressure bound in
	// micro-batches; 0 keeps the fully synchronous engine. The
	// GOMAXPROCS-sized pool is created lazily on the first worker-mode
	// subscribe.
	parallel int
	schedMu  sync.Mutex
	sched    *scheduler
	now      func() time.Time
	// Late is the disorder policy applied to all sources. Set before
	// pushing begins.
	Late LatePolicy

	// OnIngest, when set, observes every batch accepted into a base stream
	// (after validation and late-policy filtering) along with its trace
	// context, and OnAdvance observes every effective heartbeat. Both run
	// under the source lock, so the observation order is exactly the
	// delivery order for that stream. Replication ships these events to
	// replicas (carrying the trace ID across the wire); derived-stream
	// emissions are deliberately not reported, because a replica
	// re-derives them by running its own pipelines. Set both before
	// pushing begins.
	OnIngest  func(tc trace.Ctx, stream string, rows []types.Row)
	OnAdvance func(stream string, ts int64)

	// tracer samples batches into the end-to-end span pipeline; nil
	// disables tracing. Set before pushing begins.
	tracer *trace.Tracer

	// reg is the metrics registry; nil disables registration (standalone
	// handles keep counting for Stats). Set before sources register.
	reg *metrics.Registry
	// lateDropped counts rows discarded by LateDrop. It doubles as the
	// streamrel_stream_late_dropped_total series when a registry is set.
	lateDropped *metrics.Counter
	// nextPipeID labels pipelines in per-pipeline metric series.
	nextPipeID atomic.Int64
}

// NewRuntime creates a runtime bound to the transaction manager (window
// consistency takes its snapshots there). Incremental maintenance and plan
// sharing start off; see SetIVM and SetPlanSharing.
func NewRuntime(mgr *txn.Manager) *Runtime {
	return &Runtime{
		sources:     make(map[string]*source),
		mgr:         mgr,
		now:         time.Now,
		lateDropped: &metrics.Counter{},
	}
}

// SetPlanSharing toggles plan-level sharing. It has no effect while
// incremental maintenance is off — a group host's window state is an
// incremental one. Call once, before subscribing.
func (r *Runtime) SetPlanSharing(on bool) { r.planShare = on }

// SetMetrics binds the runtime to a metrics registry so stream, pipeline
// and window-fire series register there. Call once, before sources are
// registered; a nil registry keeps instrumentation local (Stats still
// works, nothing is exported).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r.reg = reg
	r.lateDropped = reg.Counter("streamrel_stream_late_dropped_total",
		"rows discarded by the LateDrop disorder policy")
	sources := func() float64 {
		r.mu.RLock()
		n := len(r.sources)
		r.mu.RUnlock()
		return float64(n)
	}
	pipelines := func() float64 {
		n := 0
		for _, src := range r.snapshotSources() {
			src.mu.Lock()
			n += len(src.pipes) - len(src.groups) + len(src.members)
			src.mu.Unlock()
		}
		return float64(n)
	}
	reg.GaugeFunc("streamrel_stream_sources", "registered stream sources", sources)
	reg.GaugeFunc("streamrel_stream_pipelines", "live continuous-query pipelines", pipelines)
	reg.GaugeFunc("streamrel_plan_groups",
		"plan-sharing groups (one shared host pipeline each)", func() float64 {
			n := 0
			for _, src := range r.snapshotSources() {
				src.mu.Lock()
				n += len(src.groups)
				src.mu.Unlock()
			}
			return float64(n)
		})
	reg.GaugeFunc("streamrel_plan_subscribers",
		"continuous queries subscribed to plan-sharing groups", func() float64 {
			n := 0
			for _, src := range r.snapshotSources() {
				src.mu.Lock()
				n += len(src.members)
				src.mu.Unlock()
			}
			return float64(n)
		})
}

// SetTracer binds the runtime to a tracer: ingested batches get sampled
// trace contexts and every hop records spans. Call once, before pushing
// begins; nil keeps tracing disabled.
func (r *Runtime) SetTracer(t *trace.Tracer) { r.tracer = t }

// SetIVM enables incremental view maintenance: every subsequently
// subscribed pipeline whose plan is delta-eligible (plan.DeltaProgram)
// maintains materialized per-group aggregates — insert deltas per row,
// retract deltas per expired slice — and fires from state in O(groups)
// instead of re-executing over O(window rows). Call once, before
// subscribing.
func (r *Runtime) SetIVM(on bool) { r.ivm = on }

// SetParallel switches the runtime into parallel continuous-query mode:
// every subsequently subscribed pipeline (a plan-group host counts once
// for all its members) gets a mailbox fed with micro-batch tasks (bounded
// at depth on the producer path — blocking backpressure) and is executed
// by the shared work-stealing worker pool. Call once, before subscribing.
func (r *Runtime) SetParallel(depth int) {
	if depth < 1 {
		depth = 0
	}
	r.parallel = depth
}

// ensureSched creates the work-stealing pool on the first worker-mode
// subscribe (by then SetMetrics has run).
func (r *Runtime) ensureSched() {
	r.schedMu.Lock()
	if r.sched == nil {
		r.sched = newScheduler(r.reg)
	}
	r.schedMu.Unlock()
}

// source is the fan-out point for one stream (base or derived). Its mutex
// serializes pushes, heartbeats, subscription changes and tap changes for
// this stream only.
type source struct {
	name      string
	schema    types.Schema
	cqtimeCol int // -1: timestamps supplied by the pusher (derived streams)

	mu     sync.Mutex
	lastTS int64
	hasTS  bool
	// pipes are the pipelines delivery feeds: all with mailboxes
	// (SetParallel) or all without, because the mode is fixed before the
	// first subscribe.
	pipes []*Pipeline
	taps  []*Sink

	// Plan-level sharing. Group hosts live in pipes (they are the ones
	// fed rows); members live only here, so delivery cost is O(hosts) no
	// matter how many CQs subscribe. failedMembers counts members whose
	// post stage or sink failed asynchronously during a fanout, letting
	// sweepFailedLocked skip the member scan on the common path. retired
	// holds hosts detached under the source lock (a host must never be
	// stopped while it is held); whoever drops the lock stops them.
	groups        map[string]*planGroup // key: fingerprint @ advance / visible
	members       []*Pipeline
	failedMembers atomic.Int64
	retired       []*Pipeline

	// rows counts validated rows accepted into this stream
	// (streamrel_stream_rows_total{stream=…}; nil without a registry).
	rows *metrics.Counter

	// internal marks engine-owned telemetry streams (the sys.* namespace):
	// their ingest is excluded from user-facing stream counters, the
	// tracer, and replication, so telemetry about the system never feeds
	// back into the signals it reports (no self-amplification).
	internal bool
}

// RegisterSource declares a stream. cqtimeCol is the index of the CQTIME
// column, or -1 when timestamps arrive out of band (derived streams).
func (r *Runtime) RegisterSource(name string, schema types.Schema, cqtimeCol int) error {
	return r.registerSource(name, schema, cqtimeCol, false)
}

// RegisterInternalSource declares an engine-owned telemetry stream. Its
// rows count under streamrel_sysmon_rows_total (not the user-facing
// streamrel_stream_rows_total), and its batches skip trace sampling and
// replication publish — see source.internal.
func (r *Runtime) RegisterInternalSource(name string, schema types.Schema, cqtimeCol int) error {
	return r.registerSource(name, schema, cqtimeCol, true)
}

func (r *Runtime) registerSource(name string, schema types.Schema, cqtimeCol int, internal bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sources[name]; ok {
		return fmt.Errorf("stream: source %q already registered", name)
	}
	rowsName, rowsHelp := "streamrel_stream_rows_total", "rows accepted into a stream after validation"
	if internal {
		rowsName, rowsHelp = "streamrel_sysmon_rows_total", "telemetry rows self-ingested into a sys.* stream"
	}
	r.sources[name] = &source{
		name:      name,
		schema:    schema,
		cqtimeCol: cqtimeCol,
		internal:  internal,
		groups:    make(map[string]*planGroup),
		rows:      r.reg.Counter(rowsName, rowsHelp, metrics.L("stream", name)),
	}
	return nil
}

// DropSource removes a stream, detaches its subscribers and stops their
// workers.
func (r *Runtime) DropSource(name string) {
	r.mu.Lock()
	src := r.sources[name]
	delete(r.sources, name)
	r.mu.Unlock()
	if src == nil {
		return
	}
	for _, pipe := range src.detachAll() {
		pipe.stop()
	}
}

// detachAll empties every fan-out list — pipelines, plan-group members
// and retired hosts — and returns what it removed for the caller to stop
// once s.mu is released.
func (s *source) detachAll() []*Pipeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	pipes := append([]*Pipeline(nil), s.pipes...)
	pipes = append(pipes, s.members...)
	pipes = append(pipes, s.retired...)
	s.pipes, s.members, s.retired = nil, nil, nil
	s.groups = make(map[string]*planGroup)
	return pipes
}

// HasSource reports whether name is a registered stream.
func (r *Runtime) HasSource(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.sources[name]
	return ok
}

// lookup resolves a source name under the registry read lock, refusing
// with ErrClosed once the runtime is closed.
func (r *Runtime) lookup(stream string) (*source, error) {
	r.mu.RLock()
	src, ok := r.sources[stream]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("stream: unknown stream %q", stream)
	}
	return src, nil
}

// snapshotSources copies the registry contents under the read lock.
func (r *Runtime) snapshotSources() []*source {
	r.mu.RLock()
	out := make([]*source, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s)
	}
	r.mu.RUnlock()
	return out
}

// Subscribe attaches a compiled continuous query to its stream and returns
// the pipeline handle. The plan must reference a stream.
//
// Subscription-time semantics: a new CQ starts observing from the next
// arriving event, so its earliest windows may be partial with respect to
// history (a plan-group member joining a running host sees the host's
// state, which already covers the current window). Queries needing exact
// history replay it from an archive table instead (INSERT INTO stream
// SELECT … ORDER BY ts).
func (r *Runtime) Subscribe(p *plan.Plan, sink Sink) (*Pipeline, error) {
	if p.Stream == nil {
		return nil, fmt.Errorf("stream: plan is not a continuous query")
	}
	src, err := r.lookup(p.Stream.Name)
	if err != nil {
		return nil, err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	pipe, err := newPipeline(r, src, p, sink)
	if err != nil {
		return nil, err
	}
	if pipe.pg != nil {
		// Plan-group member: the host (created on demand inside
		// newPipeline) is the subscriber the source delivers to; the
		// member only receives post-stage fanout, so it joins the member
		// list and nothing else — registration cost is O(1) in the
		// existing subscriber count.
		src.members = append(src.members, pipe)
		return pipe, nil
	}
	if r.parallel > 0 {
		pipe.startWorker(r.parallel)
	}
	src.pipes = append(src.pipes, pipe)
	return pipe, nil
}

// Unsubscribe detaches a pipeline and stops its worker, discarding any
// queued but unprocessed input.
func (r *Runtime) Unsubscribe(pipe *Pipeline) {
	src := pipe.src
	src.mu.Lock()
	src.detachLocked(pipe)
	retired := src.retired
	src.retired = nil
	src.mu.Unlock()
	pipe.stop()
	for _, h := range retired {
		h.stop()
	}
}

// detachLocked removes a pipeline from the fan-out lists. Detaching the
// last member of a plan group retires its host (the caller stops retired
// hosts after releasing s.mu); detaching a failed host orphans its
// members. Callers hold s.mu.
func (s *source) detachLocked(pipe *Pipeline) {
	if g := pipe.pg; g != nil {
		for i, m := range s.members {
			if m == pipe {
				s.members = append(s.members[:i], s.members[i+1:]...)
				break
			}
		}
		if pipe.failed.Load() {
			s.failedMembers.Add(-1)
		}
		g.detach(pipe)
		if g.n.Load() == 0 && s.groups[g.key] == g {
			s.detachLocked(g.host)
			s.retired = append(s.retired, g.host)
		}
		return
	}
	if g := pipe.hosting; g != nil {
		if s.groups[g.key] == g {
			delete(s.groups, g.key)
		}
		// Host failure cascade: the members' window state is gone, so they
		// are orphaned (their single shared error surfaces via the host).
		for _, m := range g.clearMembers() {
			for i, x := range s.members {
				if x == m {
					s.members = append(s.members[:i], s.members[i+1:]...)
					break
				}
			}
			if m.failed.Load() {
				s.failedMembers.Add(-1)
			}
		}
	}
	for i, p := range s.pipes {
		if p == pipe {
			s.pipes = append(s.pipes[:i], s.pipes[i+1:]...)
			break
		}
	}
}

// sweepFailedLocked detaches pipelines whose workers failed asynchronously
// and returns their errors, so a failing sink surfaces on the next
// Push/Advance instead of poisoning the producer forever. Callers hold
// s.mu.
func (s *source) sweepFailedLocked() error {
	var errs []error
	for i := 0; i < len(s.pipes); {
		p := s.pipes[i]
		if p.failed.Load() {
			s.detachLocked(p)
			p.stop() // failed workers only drain, so this returns promptly
			if err := p.takeErr(); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		i++
	}
	// Plan-group members fail asynchronously inside fanout (their post
	// stage or sink); the counter keeps this scan off the common path.
	if s.failedMembers.Load() > 0 {
		for i := 0; i < len(s.members); {
			m := s.members[i]
			if m.failed.Load() {
				s.detachLocked(m)
				m.stop()
				if err := m.takeErr(); err != nil {
					errs = append(errs, err)
				}
				continue
			}
			i++
		}
	}
	return errors.Join(errs...)
}

// failLocked detaches a pipeline that failed while the producer applied a
// delivery inline, stops it — detaching its gauges and, in parallel mode,
// its idle mailbox — and propagates the error to the producer. Callers
// hold s.mu.
func (s *source) failLocked(pipe *Pipeline, err error) error {
	s.detachLocked(pipe)
	pipe.stop()
	return err
}

// Push appends one row to a base stream. The row's CQTIME column supplies
// its timestamp; timestamps must be non-decreasing (the paper's streams
// are "ordered on an attribute").
func (r *Runtime) Push(stream string, row types.Row) error {
	src, err := r.lookup(stream)
	if err != nil {
		return err
	}
	one := [1]types.Row{row}
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.deliver(r, trace.Ctx{}, one[:], nil)
}

// PushBatch appends rows in order. Per-batch invariants — source
// resolution, schema arity, timestamp extraction and the late policy — are
// validated in one pre-pass, so an invalid row rejects the whole batch
// before anything is delivered; window advance and delivery then happen
// once per batch per pipeline instead of once per row.
func (r *Runtime) PushBatch(stream string, rows []types.Row) error {
	return r.PushBatchCtx(trace.Ctx{}, stream, rows, nil)
}

// PushBatchCtx is PushBatch with an externally assigned trace context:
// a replica re-injects the primary's trace ID here so the local apply
// hops join the primary's span chain. A zero Ctx lets the runtime's own
// tracer make the sampling decision.
//
// A non-nil clock marks a CQTIME SYSTEM append: every row's CQTIME
// column is overwritten with its arrival time, read from clock under the
// source lock and clamped to the stream's high-water mark, so concurrent
// appenders, a clock stepping backwards and a heartbeat ahead of the
// clock never put the stream out of order. Replicated appends keep the
// primary's stamps and pass nil.
func (r *Runtime) PushBatchCtx(tc trace.Ctx, stream string, rows []types.Row, clock func() time.Time) error {
	src, err := r.lookup(stream)
	if err != nil {
		return err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.deliver(r, tc, rows, clock)
}

// prepare validates a batch and stamps each row with its timestamp,
// applying the late policy against a running high-water mark. With a
// clock (CQTIME SYSTEM), the batch's rows are copied with their CQTIME
// column set to one arrival time no earlier than the high-water mark. On
// success the source clock advances; on error nothing is delivered and
// the clock is untouched. The returned block is pooled and refcounted:
// the caller owns one reference (release when done) and takes more for
// each worker the batch is handed to. Callers hold s.mu.
func (s *source) prepare(r *Runtime, rows []types.Row, explicitTS int64, explicit bool, clock func() time.Time) (*batchBlock, error) {
	block := getBatchBlock(len(rows))
	batch := block.rows
	fail := func(err error) (*batchBlock, error) {
		block.rows = batch
		block.release()
		return nil, err
	}
	arity := len(s.schema)
	hwm, has := s.lastTS, s.hasTS
	var arrival types.Datum
	if clock != nil {
		ts := clock().UnixMicro()
		if has && ts < hwm {
			ts = hwm
		}
		arrival = types.NewTimestampMicros(ts)
	}
	for _, row := range rows {
		if len(row) != arity {
			return fail(fmt.Errorf("stream: %s: row has %d columns, schema has %d",
				s.name, len(row), arity))
		}
		var ts int64
		switch {
		case explicit:
			ts = explicitTS
		case s.cqtimeCol >= 0:
			if clock != nil {
				row = row.Clone()
				row[s.cqtimeCol] = arrival
			}
			d := row[s.cqtimeCol]
			if d.Type() != types.TypeTimestamp {
				return fail(fmt.Errorf("stream: %s: CQTIME column is %s, want TIMESTAMP", s.name, d.Type()))
			}
			ts = d.TimestampMicros()
		default:
			return fail(fmt.Errorf("stream: %s: no CQTIME column and no explicit timestamp", s.name))
		}
		if has && ts < hwm {
			switch r.Late {
			case LateDrop:
				r.lateDropped.Inc()
				continue
			case LateClamp:
				ts = hwm
			default:
				return fail(fmt.Errorf("stream: %s: out-of-order timestamp %d < %d (streams are ordered on CQTIME)",
					s.name, ts, hwm))
			}
		}
		hwm, has = ts, true
		batch = append(batch, tsRow{ts, row})
	}
	s.lastTS, s.hasTS = hwm, has
	block.rows = batch
	return block, nil
}

// inline decides, for one delivery, whether the producer applies it to
// the pipelines itself instead of enqueuing it on their mailboxes. It is
// always true without a scheduler (the pipelines have no mailboxes; the
// synchronous engine). With one, it is true only for a single subscriber
// whose worker is idle — not failed, nothing queued, everything enqueued
// already applied — so the producer skips the channel hand-off whose
// wake-up latency made k=1 parallel mode slower than serial. Memory
// ordering: applied is incremented after the worker's last mutation of
// pipeline state, so enqueued == applied proves those writes are visible
// here; the next enqueue publishes the producer's inline mutations back
// to the worker. Callers hold s.mu.
func (s *source) inline() bool {
	if len(s.pipes) == 0 || s.pipes[0].mbox == nil {
		return true
	}
	if len(s.pipes) != 1 {
		return false
	}
	p := s.pipes[0]
	return !p.failed.Load() && p.mbox.depth() == 0 && p.enqueued.Load() == p.applied.Load()
}

// deliver fans one validated batch out to every subscriber. A row at ts
// proves every window closing at or before ts complete, so each pipeline
// fires those closes before buffering the row — per pipeline, rows and
// closes interleave exactly as in row-at-a-time delivery. Order: the
// batch is enqueued on the mailboxes (unless delivery is inline), then
// the taps run, then inline pipelines step. Callers hold s.mu.
func (s *source) deliver(r *Runtime, tc trace.Ctx, rows []types.Row, clock func() time.Time) error {
	if err := s.sweepFailedLocked(); err != nil {
		return err
	}
	block, err := s.prepare(r, rows, 0, false, clock)
	if err != nil {
		return err
	}
	defer block.release()
	batch := block.rows
	if len(batch) == 0 {
		return nil
	}
	// Sampling decision at ingest: a batch without an externally assigned
	// context (replica re-injection, derived emission) rolls the dice
	// here. Unsampled batches still get an ingest timestamp so slow-fire
	// latency is measurable for every fire.
	if r.tracer != nil && tc.ID == 0 && tc.Ingest == 0 && !s.internal {
		tc = r.tracer.Begin(s.name, len(batch))
	}
	s.rows.Add(int64(len(batch)))
	if r.OnIngest != nil && !s.internal {
		// The batch entered the stream (the clock advanced) even if a
		// subscriber sink fails below, so the event is published before
		// fan-out. Copy the rows out of the pooled batch block: the
		// observer may retain the slice.
		accepted := make([]types.Row, len(batch))
		for i := range batch {
			accepted[i] = batch[i].row
		}
		r.OnIngest(tc, s.name, accepted)
	}
	inline := s.inline()
	if !inline {
		// Queue first so workers chew on the batch while the producer
		// runs the taps.
		s.fanOutWorkers(r, tc, task{kind: taskBatch, batch: batch, block: block}, true)
	}
	// Base-stream taps archive the raw feed; one call per batch turns
	// the channel's transaction (and WAL append + fsync) per ROW into
	// one per BATCH. Taps run before inline pipelines step so a window
	// firing mid-batch sees the whole batch archived.
	if len(s.taps) > 0 {
		rb := getRowsBlock(len(batch))
		for _, tr := range batch {
			rb.rows = append(rb.rows, tr.row)
		}
		err := s.runTaps(tc, batch[len(batch)-1].ts, rb.rows)
		rb.put()
		if err != nil {
			return err
		}
	}
	if !inline {
		return nil
	}
	// Inline: the whole batch, one pipeline at a time.
	for _, pipe := range s.pipes {
		if tc.ID != 0 {
			// Inline delivery has no queue; zero-duration enqueue and
			// pickup markers keep the span chain the same in every mode.
			now := time.Now().UnixMicro()
			r.tracer.Record(trace.Span{Trace: tc.ID, Stage: trace.StageEnqueue,
				Stream: s.name, Pipe: pipe.id, Start: now, Rows: len(batch)})
			r.tracer.Record(trace.Span{Trace: tc.ID, Stage: trace.StagePickup,
				Stream: s.name, Pipe: pipe.id, Start: now, Rows: len(batch)})
		}
		if err := pipe.processBatch(batch, tc); err != nil {
			return s.failLocked(pipe, err)
		}
	}
	return nil
}

// runTaps hands one delivery (its last timestamp and rows) to every tap.
// Callers hold s.mu.
func (s *source) runTaps(tc trace.Ctx, ts int64, rows []types.Row) error {
	for _, tap := range s.taps {
		if err := (*tap)(tc, ts, rows); err != nil {
			return err
		}
	}
	return nil
}

// fanOutWorkers enqueues one task on every pipeline's mailbox, recording
// an enqueue span (duration = backpressure wait) for sampled batches.
// Each enqueue takes one reference on the task's batch block; the worker
// releases it after applying (or dropping) the task. bounded applies the
// mailbox backpressure bound — true only on the external producer path,
// never for work originating inside the worker pool (see worker.go).
// Callers hold s.mu and have found delivery not inline.
func (s *source) fanOutWorkers(r *Runtime, tc trace.Ctx, t task, bounded bool) {
	t.tc = tc
	for _, pipe := range s.pipes {
		if t.block != nil {
			t.block.retain()
		}
		if tc.ID == 0 {
			pipe.enqueue(t, bounded)
			continue
		}
		start := time.Now()
		t.enqNS = start.UnixNano()
		pipe.enqueue(t, bounded)
		r.tracer.Record(trace.Span{Trace: tc.ID, Stage: trace.StageEnqueue,
			Stream: s.name, Pipe: pipe.id, Start: start.UnixMicro(),
			Dur: time.Since(start).Nanoseconds(), Rows: len(t.batch)})
	}
}

// Advance moves a stream's clock to ts (a heartbeat), closing any windows
// whose boundary has been reached even if no data arrived.
func (r *Runtime) Advance(stream string, ts int64) error {
	src, err := r.lookup(stream)
	if err != nil {
		return err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.advanceLocked(r, ts)
}

func (s *source) advanceLocked(r *Runtime, ts int64) error {
	if err := s.sweepFailedLocked(); err != nil {
		return err
	}
	if s.hasTS && ts < s.lastTS {
		return nil // stale heartbeat: ignore
	}
	s.lastTS, s.hasTS = ts, true
	if r.OnAdvance != nil && s.cqtimeCol >= 0 {
		r.OnAdvance(s.name, ts)
	}
	if !s.inline() {
		s.fanOutWorkers(r, trace.Ctx{}, task{kind: taskAdvance, ts: ts}, true)
		return nil
	}
	for _, pipe := range s.pipes {
		if err := pipe.advanceTo(ts); err != nil {
			return s.failLocked(pipe, err)
		}
	}
	return nil
}

// Tap attaches a raw sink to a stream. On a derived stream the sink
// receives every emission (close timestamp + rows); on a base stream it
// receives each pushed row. Channels use taps to copy stream contents into
// tables (paper §3.3); a base-stream channel archives the raw feed. The
// returned function detaches the tap.
func (r *Runtime) Tap(stream string, sink Sink) (func(), error) {
	src, err := r.lookup(stream)
	if err != nil {
		return nil, err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	src.taps = append(src.taps, &sink)
	handle := &sink
	return func() {
		src.mu.Lock()
		defer src.mu.Unlock()
		for i, t := range src.taps {
			if t == handle {
				src.taps = append(src.taps[:i], src.taps[i+1:]...)
				return
			}
		}
	}, nil
}

// DerivedSink returns the sink that feeds a derived stream's source. The
// engine wires it as the sink of the derived stream's always-on pipeline.
// Emission takes the derived source's own lock, so the sink may run on any
// goroutine — the producer when delivery is inline, the upstream
// pipeline's worker otherwise.
func (r *Runtime) DerivedSink(stream string) Sink {
	return func(tc trace.Ctx, closeTS int64, rows []types.Row) error {
		return r.emitDerived(tc, stream, closeTS, rows)
	}
}

// emitDerived delivers one emission of a derived stream into its source:
// all rows share the emission timestamp closeTS, and the emission boundary
// itself is signalled for SLICES-window consumers. The upstream fire's
// trace context rides along, so a sampled base-stream batch's chain
// continues through every derived stream it cascades into. Delivery order
// is deliver's: enqueue, taps, inline pipelines.
func (r *Runtime) emitDerived(tc trace.Ctx, stream string, closeTS int64, rows []types.Row) error {
	r.mu.RLock()
	src, ok := r.sources[stream]
	r.mu.RUnlock()
	if !ok {
		// The derived stream has been dropped; discard silently.
		return nil
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if err := src.sweepFailedLocked(); err != nil {
		return err
	}
	block, err := src.prepare(r, rows, closeTS, true, nil)
	if err != nil {
		return err
	}
	defer block.release()
	batch := block.rows
	src.rows.Add(int64(len(batch)))
	inline := src.inline()
	if !inline {
		// Unbounded: emissions may originate on a pool worker, which must
		// never block on another pipeline's mailbox bound (deadlock).
		src.fanOutWorkers(r, tc, task{kind: taskEmission, batch: batch, block: block,
			ts: closeTS, emRows: len(rows)}, false)
	}
	if err := src.runTaps(tc, closeTS, rows); err != nil {
		return err
	}
	if !inline {
		return nil
	}
	for _, pipe := range src.pipes {
		if err := pipe.processBatch(batch, tc); err != nil {
			return src.failLocked(pipe, err)
		}
	}
	for _, pipe := range src.pipes {
		if err := pipe.endEmission(closeTS, len(rows)); err != nil {
			return src.failLocked(pipe, err)
		}
	}
	return nil
}

// Quiesce blocks until every pipeline worker has drained all input
// enqueued before the call — including work that cascades through derived
// streams — then reports any asynchronous pipeline failures, detaching the
// failed pipelines. With no workers it only sweeps for failures. Quiesce
// does not prevent concurrent producers; callers wanting a true barrier
// stop pushing first.
func (r *Runtime) Quiesce() error {
	r.drainWorkers()
	var errs []error
	for _, src := range r.snapshotSources() {
		src.mu.Lock()
		if err := src.sweepFailedLocked(); err != nil {
			errs = append(errs, err)
		}
		retired := src.retired
		src.retired = nil
		src.mu.Unlock()
		for _, h := range retired {
			h.stop()
		}
	}
	return errors.Join(errs...)
}

// drainWorkers flushes every mailbox until a pass enqueues nothing new:
// work applied behind one barrier can cascade through derived streams
// into mailboxes the pass already flushed.
func (r *Runtime) drainWorkers() {
	for {
		before := r.tasksEnqueued()
		r.flushWorkers()
		if r.tasksEnqueued() == before {
			return
		}
	}
}

// tasksEnqueued sums the lifetime task counts of every pipeline (zero for
// pipelines without a mailbox).
func (r *Runtime) tasksEnqueued() int64 {
	var n int64
	for _, src := range r.snapshotSources() {
		src.mu.Lock()
		for _, p := range src.pipes {
			n += p.enqueued.Load()
		}
		src.mu.Unlock()
	}
	return n
}

// flushWorkers pushes one barrier through every worker queue and waits for
// all of them.
func (r *Runtime) flushWorkers() {
	for _, src := range r.snapshotSources() {
		var dones []chan struct{}
		src.mu.Lock()
		for _, p := range src.pipes {
			if p.mbox == nil {
				continue
			}
			done := make(chan struct{})
			// Unbounded: the flush barrier must not add backpressure (and
			// Quiesce may run concurrently with a blocked producer).
			p.enqueue(task{kind: taskFlush, done: done}, false)
			dones = append(dones, done)
		}
		src.mu.Unlock()
		for _, done := range dones {
			<-done
		}
	}
}

// Close drains every pipeline worker, stops them, detaches all pipelines
// and returns any asynchronous failures that had not yet been surfaced.
// Producers must have stopped (the engine gates Close behind its own
// writer lock); pushes and heartbeats after Close return ErrClosed.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()

	// Graceful drain first, so cascaded emissions still find their
	// consumers attached.
	r.drainWorkers()
	var errs []error
	var pipes []*Pipeline
	for _, src := range r.snapshotSources() {
		pipes = append(pipes, src.detachAll()...)
	}
	for _, pipe := range pipes {
		pipe.stop()
		if err := pipe.takeErr(); err != nil {
			errs = append(errs, err)
		}
	}
	r.schedMu.Lock()
	sched := r.sched
	r.schedMu.Unlock()
	if sched != nil {
		sched.close()
	}
	return errors.Join(errs...)
}

// SharingInfo reports the live plan group the given plan would join if
// subscribed now: its key and current subscriber count. An empty key
// means plan sharing does not apply (shape ineligible or disabled);
// EXPLAIN renders this without subscribing anything.
func (r *Runtime) SharingInfo(p *plan.Plan) (groupKey string, subscribers int) {
	if !r.planShare || !r.ivm || p.Stream == nil || p.StreamAgg == nil {
		return "", 0
	}
	w := p.Stream.Window
	if w.Kind != sql.WindowTime || w.Advance <= 0 || w.Visible%w.Advance != 0 {
		return "", 0
	}
	src, err := r.lookup(p.Stream.Name)
	if err != nil {
		return "", 0
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	groupKey = planGroupKey(p.StreamAgg.Fingerprint, w.Advance, w.Visible)
	if g := src.groups[groupKey]; g != nil {
		subscribers = int(g.n.Load())
	}
	return groupKey, subscribers
}

// snapshotCtx builds the per-window execution context: a fresh snapshot at
// the window boundary (window consistency) plus the closing timestamp for
// cq_close(*).
func (r *Runtime) snapshotCtx(closeTS int64) *exec.Ctx {
	return &exec.Ctx{
		Snap:        r.mgr.SnapshotNow(),
		WindowClose: types.NewTimestampMicros(closeTS),
		Now:         r.now,
	}
}

// Stats reports runtime counters for tests and the REPL.
type Stats struct {
	Sources int
	// Pipelines counts user-facing continuous queries: plan-group members
	// and standalone pipelines. Internal group hosts are excluded.
	Pipelines int
	// PlanGroups counts plan-sharing groups (one shared host pipeline
	// each); PlanSubscribers counts the CQs subscribed to them.
	PlanGroups      int
	PlanSubscribers int
	// IncrementalPipes counts pipelines firing from materialized IVM state.
	IncrementalPipes int
	WindowsFired     int64
	RowsProcessed    int64
	LateDropped      int64
	// Scheduler counters (parallel mode; zero when the work-stealing pool
	// was never created). SchedWorkers is the pool size, SchedRunnable the
	// pipelines queued awaiting a worker, SchedSteals/SchedParks the
	// lifetime steal and park counts — the streamrel_sched_* series.
	SchedWorkers  int
	SchedRunnable int64
	SchedSteals   int64
	SchedParks    int64
	// PerPipeline lists one consistent counter snapshot per live
	// pipeline; the totals above are sums over it.
	PerPipeline []PipelineStats
}

// PipelineStats is one pipeline's counter snapshot. The pair
// (WindowsFired, RowsSeen) is read in an order that preserves the
// producer-side invariant — rows are counted before the window fire they
// contribute to — so for a row window with ADVANCE a,
// WindowsFired*a <= RowsSeen holds in every snapshot.
type PipelineStats struct {
	Stream       string
	ID           int64
	WindowsFired int64
	RowsSeen     int64
	// QueueDepth is the number of queued micro-batch tasks (parallel
	// mode); 0 for synchronous pipelines.
	QueueDepth int
	// Incremental marks pipelines firing from materialized IVM state.
	Incremental bool
	// PlanShared marks plan-group members: Incremental then names the
	// host's strategy and RowsSeen mirrors the host's intake.
	PlanShared bool
}

// statsSnapshot reads this pipeline's counters as one consistent pass.
// Load order matters: the producer increments rowsSeen before any fire
// those rows prove, so loading windowsFired first guarantees the returned
// pair never shows more fires than its rows justify.
func (p *Pipeline) statsSnapshot() PipelineStats {
	if g := p.pg; g != nil {
		// Member snapshot: its own fires, the host's row intake (rows the
		// shared pipeline consumed on this CQ's behalf). Member fires
		// trail host fires, which trail the host's row count, so the load
		// order preserves the invariant above.
		ps := PipelineStats{
			Stream:      p.src.name,
			ID:          p.id,
			Incremental: g.host.ivm != nil,
			PlanShared:  true,
		}
		ps.WindowsFired = p.windowsFired.Value()
		ps.RowsSeen = g.host.rowsSeen.Value()
		return ps
	}
	ps := PipelineStats{
		Stream:      p.src.name,
		ID:          p.id,
		Incremental: p.ivm != nil,
	}
	ps.WindowsFired = p.windowsFired.Value()
	ps.RowsSeen = p.rowsSeen.Value()
	if p.mbox != nil {
		ps.QueueDepth = p.mbox.depth()
	}
	return ps
}

// Stats returns a snapshot of runtime counters. Per-pipeline counters are
// atomics, so this only takes each source's lock long enough to copy its
// subscriber list — it never stops delivery across the whole runtime.
func (r *Runtime) Stats() Stats {
	var s Stats
	s.LateDropped = r.lateDropped.Value()
	r.schedMu.Lock()
	if r.sched != nil {
		s.SchedWorkers = len(r.sched.deques)
		s.SchedRunnable = r.sched.runnable.Load()
		s.SchedSteals = r.sched.steals.Value()
		s.SchedParks = r.sched.parks.Value()
	}
	r.schedMu.Unlock()
	sources := r.snapshotSources()
	s.Sources = len(sources)
	for _, src := range sources {
		src.mu.Lock()
		s.Pipelines += len(src.pipes) - len(src.groups) + len(src.members)
		s.PlanGroups += len(src.groups)
		s.PlanSubscribers += len(src.members)
		pipes := append([]*Pipeline(nil), src.pipes...)
		pipes = append(pipes, src.members...)
		src.mu.Unlock()
		for _, pipe := range pipes {
			if pipe.hosting != nil {
				// Internal group hosts are an implementation detail; their
				// work is attributed to their members.
				continue
			}
			ps := pipe.statsSnapshot()
			s.WindowsFired += ps.WindowsFired
			s.RowsProcessed += ps.RowsSeen
			if ps.Incremental {
				s.IncrementalPipes++
			}
			s.PerPipeline = append(s.PerPipeline, ps)
		}
	}
	return s
}
