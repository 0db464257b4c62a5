package stream

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/trace"
)

// Worker execution for parallel continuous-query mode. Each worker-mode
// pipeline owns a mailbox — a FIFO of micro-batch tasks — and the shared
// work-stealing pool (sched.go) runs at most one worker inside a mailbox
// at a time, so tasks — and therefore rows and window closes — are applied
// in exactly the order the producer enqueued them, keeping per-pipeline
// results identical to the synchronous engine. The mailbox bound gives
// blocking backpressure on the producer path: a producer outrunning a
// slow CQ parks on that CQ's mailbox instead of growing memory without
// bound. Enqueues from inside the pool (derived-stream cascades, flush
// barriers) are exempt from the bound so pool workers never block on a
// mailbox — a bounded cascade enqueue could deadlock the pool when every
// worker waits on a mailbox only another pool worker could drain.

type taskKind uint8

const (
	// taskBatch applies a prepared micro-batch of stream rows.
	taskBatch taskKind = iota
	// taskAdvance is a heartbeat: close windows up to ts.
	taskAdvance
	// taskEmission is one derived-stream emission: the batch plus the
	// emission boundary for SLICES-window consumers.
	taskEmission
	// taskFlush is a barrier: the worker closes done once everything
	// enqueued before it has been applied.
	taskFlush
)

type task struct {
	kind  taskKind
	batch []tsRow
	// block owns batch's backing storage when the batch rode in on a
	// pooled block; the worker releases its reference after the task is
	// applied (or dropped by a stopped mailbox's drain). nil for advance
	// and flush tasks.
	block  *batchBlock
	ts     int64
	emRows int // taskEmission: row count of the emission
	done   chan struct{}
	tc     trace.Ctx
	enqNS  int64 // sampled tasks: wall-clock ns at enqueue, for the pickup span
}

// Mailbox claim states. The state machine is the scheduler's claim token:
// idle → queued happens on the enqueue that finds the mailbox idle (that
// enqueue submits the pipeline to the pool, exactly once), queued →
// running when a worker claims it, running → idle when the drain empties
// the queue (or → queued again when the worker requeues after its
// quantum).
type mboxState uint8

const (
	mboxIdle mboxState = iota
	mboxQueued
	mboxRunning
)

// mailbox is one pipeline's task queue. q[head:] are pending tasks; size
// mirrors that count atomically for lock-free depth reads (metrics,
// source.inline).
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond // producers blocked on bound; stop waiting for running
	q       []task
	head    int
	size    atomic.Int64
	state   mboxState
	bound   int // producer backpressure threshold, in tasks
	stopped bool
}

func (m *mailbox) depth() int { return int(m.size.Load()) }

// startWorker switches the pipeline into mailbox mode with the given
// backpressure bound. Called under the source lock before the pipeline is
// added to the fan-out list, so no task can precede it.
func (p *Pipeline) startWorker(bound int) {
	m := &mailbox{bound: bound}
	m.cond = sync.NewCond(&m.mu)
	p.mbox = m
	p.rt.ensureSched()
	if p.rt.reg != nil {
		p.unregQueueGauge = p.rt.reg.GaugeFunc("streamrel_pipeline_queue_depth",
			"micro-batch tasks queued for a pipeline worker",
			func() float64 { return float64(m.depth()) },
			metrics.L("stream", p.src.name),
			metrics.L("pipe", strconv.FormatInt(p.id, 10)))
	}
}

// enqueue appends a task to the mailbox and, when the mailbox was idle,
// submits the pipeline to the scheduler. bounded enqueues (the base-stream
// producer path) block while the mailbox is at its bound — backpressure —
// and must never be used from a pool worker. Callers hold the source lock;
// a stopped mailbox drops the task (its pipeline is already detached).
func (p *Pipeline) enqueue(t task, bounded bool) {
	m := p.mbox
	m.mu.Lock()
	if bounded {
		for m.size.Load() >= int64(m.bound) && !m.stopped {
			m.cond.Wait()
		}
	}
	if m.stopped {
		m.mu.Unlock()
		dropTask(t)
		return
	}
	if t.kind != taskFlush {
		p.enqueued.Add(1)
	}
	m.q = append(m.q, t)
	m.size.Add(1)
	submit := m.state == mboxIdle
	if submit {
		m.state = mboxQueued
	}
	m.mu.Unlock()
	if submit {
		p.rt.sched.submit(p)
	}
}

// runMailbox drains this pipeline's mailbox on a pool worker. At most one
// worker runs here at a time (the state machine's claim token), so tasks
// apply strictly in enqueue order. After a failure the drain keeps
// consuming (dropping work) so producers never block forever on a
// poisoned mailbox; the source sweeps the pipeline out and surfaces the
// error on the next Push/Advance/Quiesce/Close. Block references are
// released even for dropped work, and applied counts every non-flush task
// — after its effects are complete — so the producer's idle check
// (source.inline) is exact.
func (p *Pipeline) runMailbox() {
	m := p.mbox
	n := 0
	m.mu.Lock()
	m.state = mboxRunning
	for {
		if m.stopped {
			for m.head < len(m.q) {
				t := m.q[m.head]
				m.q[m.head] = task{}
				m.head++
				m.size.Add(-1)
				dropTask(t)
			}
		}
		if m.head >= len(m.q) {
			m.q, m.head = m.q[:0], 0
			break
		}
		if n >= schedQuantum {
			// Quantum spent: requeue so runnable peers get this worker.
			m.state = mboxQueued
			m.mu.Unlock()
			p.rt.sched.submit(p)
			return
		}
		t := m.q[m.head]
		m.q[m.head] = task{}
		m.head++
		m.size.Add(-1)
		m.cond.Signal() // one slot freed: wake a bounded producer
		m.mu.Unlock()
		n++
		if t.kind == taskFlush {
			close(t.done)
		} else {
			if !p.failed.Load() {
				if err := p.apply(t); err != nil {
					p.failErr = err
					p.failed.Store(true)
				}
			}
			if t.block != nil {
				t.block.release()
			}
			p.applied.Add(1)
		}
		m.mu.Lock()
	}
	m.state = mboxIdle
	m.cond.Broadcast() // wake stop() waiting for the drain to finish
	m.mu.Unlock()
}

// dropTask releases a dropped task's resources so stop/enqueue-after-stop
// never leak pooled blocks or strand a flush barrier.
func dropTask(t task) {
	if t.kind == taskFlush {
		close(t.done)
		return
	}
	if t.block != nil {
		t.block.release()
	}
}

// stop marks the mailbox stopped, drops queued work and waits for any
// in-flight task to finish, then detaches per-pipeline gauges. Safe to
// call multiple times; synchronous pipelines only detach gauges.
func (p *Pipeline) stop() {
	p.stopOnce.Do(func() {
		if p.unregIVMGauges != nil {
			p.unregIVMGauges()
		}
		if p.mbox == nil {
			return
		}
		m := p.mbox
		m.mu.Lock()
		m.stopped = true
		for m.head < len(m.q) {
			t := m.q[m.head]
			m.q[m.head] = task{}
			m.head++
			m.size.Add(-1)
			dropTask(t)
		}
		m.q, m.head = m.q[:0], 0
		m.cond.Broadcast() // unblock bounded producers
		for m.state == mboxRunning {
			m.cond.Wait()
		}
		m.mu.Unlock()
		if p.unregQueueGauge != nil {
			p.unregQueueGauge()
		}
	})
}

// takeErr returns the worker's failure, if any, consuming it.
func (p *Pipeline) takeErr() error {
	if !p.failed.Load() {
		return nil
	}
	err := p.failErr
	p.failErr = nil
	p.failed.Store(false)
	return err
}

func (p *Pipeline) apply(t task) error {
	switch t.kind {
	case taskBatch:
		p.pickup(t)
		return p.processBatch(t.batch, t.tc)
	case taskAdvance:
		return p.advanceTo(t.ts)
	case taskEmission:
		p.pickup(t)
		if err := p.processBatch(t.batch, t.tc); err != nil {
			return err
		}
		return p.endEmission(t.ts, t.emRows)
	}
	return nil
}

// pickup records the queue-wait span for a sampled task: the time between
// the producer's enqueue and a pool worker dequeuing it.
func (p *Pipeline) pickup(t task) {
	if t.tc.ID == 0 || t.enqNS == 0 || p.rt.tracer == nil {
		return
	}
	p.rt.tracer.Record(trace.Span{Trace: t.tc.ID, Stage: trace.StagePickup,
		Stream: p.src.name, Pipe: p.id, Start: t.enqNS / 1000,
		Dur: time.Now().UnixNano() - t.enqNS, Rows: len(t.batch)})
}
