// Package sim provides a deterministic discrete-event simulation engine
// with cooperative, virtual-time processes.
//
// Exactly one simulated process runs at any instant: each process body is
// a coroutine (an iter.Pull pull-iterator) that the engine resumes and
// that yields back when it parks, so a handoff is a direct in-thread
// switch — no goroutine scheduler round trip — and a simulation is
// single-threaded in effect and bit-for-bit reproducible. Events
// scheduled for the same instant fire in scheduling order (FIFO).
//
// The engine detects deadlock: if the event queue drains while processes
// are still parked, Run returns a DeadlockError naming every parked process
// and the reason recorded at its park site.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is simulated time in seconds.
type Time = float64

// Event is a handle to a scheduled callback; it can be cancelled. The
// callback is either fn, or argFn applied to arg (ScheduleOwnedArg) — the
// latter lets hot paths schedule a persistent function with per-event state
// without allocating a closure.
type Event struct {
	eng    *Engine
	t      Time
	seq    int64
	fn     func()
	argFn  func(any)
	arg    any
	dead   bool
	pooled bool
	where  int32 // queue tier (qNone/qNear/qBucket/qOver)
	bkt    int32 // bucket index when where == qBucket
	slot   int32 // index within the tier's slice
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The event is removed from the queue
// immediately, so heavy schedule/cancel churn (the memory simulator
// rescheduling its completion event on every flow change) does not grow
// the queue with dead entries.
func (ev *Event) Cancel() {
	if ev.dead {
		return
	}
	ev.dead = true
	ev.fn, ev.argFn, ev.arg = nil, nil, nil
	if ev.where != qNone {
		ev.eng.q.remove(ev)
		if ev.pooled {
			ev.eng.recycle(ev)
		}
	}
}

// Time returns the instant the event is scheduled for.
func (ev *Event) Time() Time { return ev.t }

// Retime moves a still-pending event to absolute time t (>= Now())
// without consuming a new sequence number: at its new instant the event
// keeps the tie-break position of its original schedule call. This is
// the primitive behind end-of-instant flushes that must correct an
// event's provisional target — the memory simulator's burst-batched
// repricing retimes its completion event this way, so runs stay
// bit-identical to the historical solve-per-event schedule. Retiming a
// fired or cancelled event panics.
func (e *Engine) Retime(ev *Event, t Time) {
	if ev.dead || ev.where == qNone {
		panic("sim: Retime of a fired or cancelled event")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: Retime to %g before now %g", t, e.now))
	}
	if t == ev.t {
		return
	}
	e.q.remove(ev)
	ev.t = t
	e.q.push(ev)
}

// slabSize is the number of Events carved from one backing array. Schedule
// hands out never-reused handles, so its events cannot come from the free
// list; carving them from a chunked slab instead of one make per call
// amortises the allocation to 1/slabSize per event.
const slabSize = 512

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Time
	q   calQueue
	seq int64

	procs   []*Proc
	live    int // spawned processes that have not finished
	current *Proc
	running bool
	stopped bool

	free     []*Event // pool for owned events (ScheduleOwned)
	slab     []Event  // current slab chunk for newly carved events
	slabUsed int

	procPool []*Proc // finished processes parked by Reset for respawning

	arena *Arena // per-run slab pools, rewound by Reset (see arena.go)

	deferred []func() // end-of-instant callbacks (Defer), FIFO

	fired     int64
	maxEvents int64
	interrupt func() error
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run after delay d (>= 0) from the current time.
// It returns a cancellable handle. fn runs in engine context: it must not
// block in simulated time (use Spawn for that).
func (e *Engine) Schedule(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %g", d))
	}
	return e.at(e.now+d, fn, false)
}

// ScheduleOwned is Schedule for hot paths: the returned event comes from a
// free list and is recycled as soon as it fires or is cancelled. The caller
// must therefore drop the handle at those points — it may Cancel the event
// at most once, before it fires, and must not touch the handle afterwards.
// Callers that cannot guarantee this (e.g. that keep handles past firing)
// must use Schedule, whose events are never reused.
func (e *Engine) ScheduleOwned(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: ScheduleOwned with negative delay %g", d))
	}
	return e.at(e.now+d, fn, true)
}

// ScheduleOwnedArg is ScheduleOwned for callbacks that need per-event
// state: fn(arg) runs at the scheduled time. Passing a persistent fn and a
// pointer-typed arg keeps the call allocation-free where a capturing
// closure would not. The ownership rules of ScheduleOwned apply.
func (e *Engine) ScheduleOwnedArg(d Time, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: ScheduleOwnedArg with negative delay %g", d))
	}
	ev := e.at(e.now+d, nil, true)
	ev.argFn, ev.arg = fn, arg
	return ev
}

// ScheduleOwnedAt is ScheduleOwned at an absolute time t (>= Now()): the
// target time is used verbatim, with no now+delay round trip that could
// perturb its low bits. The ownership rules of ScheduleOwned apply.
func (e *Engine) ScheduleOwnedAt(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleOwnedAt %g before now %g", t, e.now))
	}
	return e.at(t, fn, true)
}

func (e *Engine) at(t Time, fn func(), pooled bool) *Event {
	var ev *Event
	if pooled && len(e.free) > 0 {
		ev = e.free[len(e.free)-1]
		e.free[len(e.free)-1] = nil
		e.free = e.free[:len(e.free)-1]
	} else {
		if e.slabUsed == len(e.slab) {
			e.slab = make([]Event, slabSize)
			e.slabUsed = 0
		}
		ev = &e.slab[e.slabUsed]
		e.slabUsed++
	}
	e.seq++
	ev.eng, ev.t, ev.seq, ev.fn, ev.dead, ev.pooled = e, t, e.seq, fn, false, pooled
	e.q.push(ev)
	return ev
}

// recycle returns a pooled event to the free list once no live handle may
// touch it (fired, or cancelled and removed from the queue).
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.argFn, ev.arg = nil, nil, nil
	e.free = append(e.free, ev)
}

// Defer registers fn to run when the current instant completes — after the
// last event at the current timestamp has fired and before simulated time
// advances (or the queue drains). Deferred callbacks run in registration
// order; a callback may schedule events and defer further work for the
// same instant. Hot paths register one persistent closure per instant and
// coalesce their work in it (the memory simulator batches a burst of flow
// changes into a single rate solve this way).
func (e *Engine) Defer(fn func()) {
	e.deferred = append(e.deferred, fn)
}

// Running reports whether the engine is currently executing Run.
func (e *Engine) Running() bool { return e.running }

// Stop aborts the simulation: Run returns after the current event completes.
// Parked processes are killed.
func (e *Engine) Stop() { e.stopped = true }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// SetMaxEvents installs a watchdog: Run returns a WatchdogError once n
// events have fired. Use in tests to turn livelocking algorithms (e.g. a
// protocol ping-ponging forever) into failures instead of hangs. Zero
// disables the watchdog (the default).
func (e *Engine) SetMaxEvents(n int64) { e.maxEvents = n }

// interruptStride is how many fired events pass between interrupt polls: a
// compromise between cancellation latency (a few thousand events is well
// under a millisecond of wall clock on every measured machine) and keeping
// the poll off the per-event hot path.
const interruptStride = 1024

// SetInterrupt installs an external abort poll, checked every
// interruptStride fired events. When fn returns a non-nil error, Run kills
// all parked processes (their body defers run, so pooled state is
// released) and returns an *InterruptError wrapping it. The poll must be
// side-effect-free: it runs between events and must not observe or mutate
// simulation state, so an installed-but-never-firing poll leaves every
// timestamp and sequence number bit-identical to an uninstrumented run.
// Like the SetMaxEvents watchdog, the poll is engine configuration and
// survives Reset; nil removes it (the default). The measurement harness
// points it at a context.Context so callers can cancel mid-cell without
// leaking pooled engine shards.
func (e *Engine) SetInterrupt(fn func() error) { e.interrupt = fn }

// InterruptError reports that the poll installed with SetInterrupt aborted
// the run; Cause is what the poll returned (errors.Is/As unwrap to it).
type InterruptError struct {
	Cause error
	At    Time
}

func (i *InterruptError) Error() string {
	return fmt.Sprintf("sim: interrupted at t=%.9fs: %v", i.At, i.Cause)
}

func (i *InterruptError) Unwrap() error { return i.Cause }

// WatchdogError reports that the event budget set by SetMaxEvents ran out.
type WatchdogError struct {
	Fired int64
	At    Time
}

func (w *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: %d events fired by t=%.9fs", w.Fired, w.At)
}

// DeadlockError reports that the event queue drained while processes were
// still parked.
type DeadlockError struct {
	// Parked lists "name: reason" for every parked process.
	Parked []string
	At     Time
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%.9fs; parked: %s", d.At, strings.Join(d.Parked, "; "))
}

// Run executes events until the queue drains or Stop is called. It returns
// a *DeadlockError if processes remain parked when the queue drains, and
// nil otherwise. Run kills all parked processes before returning so their
// goroutines do not leak.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if err := e.loop(); err != nil {
		e.killParked()
		return err
	}
	var err error
	if !e.stopped && e.live > 0 {
		d := &DeadlockError{At: e.now}
		for _, p := range e.procs {
			if p.state == procParked {
				d.Parked = append(d.Parked, p.name+": "+p.blockReason)
			}
		}
		sort.Strings(d.Parked)
		err = d
	}
	e.killParked()
	return err
}

// loop is Run's event loop: it fires events until the queue drains or
// Stop is called and returns a watchdog or interrupt error, nil otherwise.
func (e *Engine) loop() error {
	for e.q.size > 0 && !e.stopped {
		ev := e.q.popMin()
		if ev.t < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.t
		e.fired++
		fn, argFn, arg := ev.fn, ev.argFn, ev.arg
		ev.dead = true
		if ev.pooled {
			// Recycle before running fn so a reschedule chain (fire ->
			// schedule next) reuses this object with zero allocations.
			e.recycle(ev)
		} else {
			ev.fn = nil
		}
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		if len(e.deferred) > 0 {
			if nxt := e.q.peek(); nxt == nil || nxt.t > e.now {
				e.flushDeferred()
			}
		}
		if e.maxEvents > 0 && e.fired >= e.maxEvents {
			e.killParked()
			return &WatchdogError{Fired: e.fired, At: e.now}
		}
		if e.interrupt != nil && e.fired%interruptStride == 0 {
			if err := e.interrupt(); err != nil {
				e.killParked()
				return &InterruptError{Cause: err, At: e.now}
			}
		}
	}
	return nil
}

// flushDeferred runs end-of-instant callbacks in FIFO order. Callbacks may
// defer more work; the loop picks those up within the same flush.
func (e *Engine) flushDeferred() {
	for i := 0; i < len(e.deferred); i++ {
		fn := e.deferred[i]
		e.deferred[i] = nil
		fn()
	}
	e.deferred = e.deferred[:0]
}

// Reset returns the engine to its initial state — time zero, empty queue,
// no processes, seq and fired counters cleared — while keeping its warmed
// pools: the owned-event free list, the event slab, finished Proc objects,
// and queue/slice capacities. A reset engine is observably identical to a
// fresh NewEngine() (same timestamps, same seq numbers, bit-identical
// runs) but schedules and spawns with far fewer allocations, which is what
// the sharded sweep runner reuses between cells. All outstanding Event and
// Proc handles are invalidated; callers must drop them. The SetMaxEvents
// watchdog budget and the SetInterrupt poll are configuration and survive
// Reset.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset while running")
	}
	e.q.reset()
	if e.arena != nil {
		e.arena.rewind()
	}
	for i, p := range e.procs {
		if p.state == procDone {
			p.name, p.blockReason = "", ""
			p.fn, p.argFn, p.arg = nil, nil, nil
			p.next, p.stop, p.yield = nil, nil, nil
			e.procPool = append(e.procPool, p)
		}
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.live = 0
	e.current = nil
	e.now, e.seq, e.fired = 0, 0, 0
	e.stopped = false
	for i := range e.deferred {
		e.deferred[i] = nil
	}
	e.deferred = e.deferred[:0]
}

func (e *Engine) killParked() {
	for _, p := range e.procs {
		if p.state == procParked {
			prev := e.current
			e.current = p
			// stop resumes the coroutine with yield reporting false; Park
			// turns that into a procKilled unwind, running the body's
			// deferred cleanup before stop returns.
			p.stop()
			e.current = prev
		}
	}
}

// dispatch transfers control to p and returns when p parks or finishes.
// The switch is a runtime coroutine switch (iter.Pull), not a scheduler
// round trip, so it stays on the calling OS thread.
func (e *Engine) dispatch(p *Proc) {
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
}
