package memsim

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Net is the flow-level memory system simulator for one machine. All
// concurrent copies share link bandwidth max-min fairly; rates are
// recomputed whenever a flow starts or finishes.
type Net struct {
	eng     *sim.Engine
	mach    *topology.Machine
	stats   *trace.Stats
	tl      *trace.Timeline
	caches  []*groupCache
	bwScale []float64 // per-link bandwidth multipliers (nil = none)

	flows      []*flow
	completion *sim.Event
	nextBuf    int64
	flowSeq    int64

	// onCompletionFn is the completion callback built once so reschedule
	// allocates no closure.
	onCompletionFn func()

	// Burst-batched repricing: flow adds and removals landing at one
	// simulated instant coalesce into a single end-of-instant rate solve
	// (engine Defer hook) instead of one water-filling per event.
	// repriceFn is the flush callback, built once; repricePending marks
	// that it is registered for the current instant; needSolve records
	// whether the burst requires a full recompute (any non-disjoint
	// change) or just the completion event rescheduled. rateSolves counts
	// water-filling runs (test instrumentation for the batching).
	repriceFn      func()
	repricePending bool
	needSolve      bool
	rateSolves     int64

	// linkWeight[i] is the total multiplicity of the active flows crossing
	// link i, maintained incrementally on every add/remove. It lets the
	// solver skip the full water-filling when a flow joins or leaves
	// without sharing any link with the rest (see addFlow/onCompletion)
	// and seeds the working weights without a per-flow pass.
	//
	// active lists exactly the links with linkWeight > 0, in no particular
	// order; activePos[i] is i's position in it plus one (0 = absent). The
	// solver visits only these links, so its cost tracks the links in use
	// rather than the size of the machine.
	linkWeight []float64
	active     []int
	activePos  []int

	// provAt is the earliest completion instant over the flows with a rate,
	// min f.last + f.remaining/f.rate, kept exact by every path that
	// changes a flow's rate or the flow set (see scheduleProvisional).
	provAt sim.Time

	// Persistent water-filling scratch (wf*) and startCopy scratch (use*):
	// the per-link tables are carved from three allocations sized to
	// len(mach.Links) once (allocLinkTables) and reused on every call, so
	// the hot paths allocate nothing.
	wfFixed  []float64
	wfWeight []float64
	wfShare  []float64
	wfLinks  []int
	wfFlows  []*flow
	useEpoch int64
	useMark  []int64
	useMult  []float64
	useOrder []int

	flowPool []*flow           // recycled flow objects, uses-capacity preserved
	finished []*flow           // onCompletion scratch
	pendPool []*Pending        // recycled copy handles (blocking Copy only)
	bufSlab  *sim.Slab[Buffer] // arena-backed Alloc; survives Reset

	// routes interns every core-vertex route to a domain's DRAM or a cache
	// group's port once in New (routes.go).
	routes routeTable

	// linkNames is the dense link-name table handed to every stats sink
	// (SetLinkNames), built once in New and reused by Reset.
	linkNames []string

	// Coherence islands (SetClusterIslands): per-group and per-domain
	// half-open ranges into caches bounding what a reader may snoop and
	// what a write invalidates. Nil means one island spanning the machine.
	islGroupLo, islGroupHi []int32
	islDomLo, islDomHi     []int32
}

// linkUse is one link crossed by a flow; mult > 1 when the flow crosses the
// link more than once (e.g. read and write through the same memory bus).
// idx caches link.Index so the solver's inner loops stay pointer-free.
type linkUse struct {
	link *topology.Link
	idx  int
	mult float64
}

type flow struct {
	seq       int64
	uses      []linkUse
	remaining float64
	rate      float64
	started   sim.Time
	// last is the instant of the flow's most recent depletion: its start,
	// or the last time its rate changed. Depletion is lazy per flow (see
	// depleteTo), so remaining is the bytes left as of last, not as of the
	// engine's current time.
	last    sim.Time
	pending *Pending
	// Completion state, consumed by finishFlow. Kept as plain fields (not
	// a closure) so starting a copy allocates nothing.
	engine   *topology.Link
	core     *topology.Core // nil for DMA copies
	src, dst View
}

// Pending is a handle to an in-flight copy.
type Pending struct {
	done   bool
	waiter *sim.Proc
}

// Done reports whether the copy has completed.
func (pe *Pending) Done() bool { return pe.done }

// Wait blocks p until the copy completes.
func (pe *Pending) Wait(p *sim.Proc) {
	if pe.done {
		return
	}
	if pe.waiter != nil {
		panic("memsim: multiple waiters on one Pending")
	}
	pe.waiter = p
	p.Park("memsim copy")
}

// New creates a memory system for machine m. stats may be nil.
func New(eng *sim.Engine, m *topology.Machine, stats *trace.Stats) *Net {
	if stats == nil {
		stats = &trace.Stats{}
	}
	n := &Net{eng: eng, mach: m, stats: stats}
	n.bufSlab = sim.SlabFor[Buffer](eng.Arena())
	names := make([]string, len(m.Links))
	for i, l := range m.Links {
		names[i] = l.Name
	}
	n.linkNames = names
	stats.SetLinkNames(names)
	for _, g := range m.Groups {
		n.caches = append(n.caches, newGroupCache(g, &entryPool{}))
	}
	n.routes = newRouteTable(m)
	nl := len(m.Links)
	n.allocLinkTables(nl)
	n.onCompletionFn = n.onCompletion
	n.repriceFn = n.flushReprice
	return n
}

// allocLinkTables sizes the per-link solver and startCopy tables for a
// machine of nl links, carving them from one float and one int allocation
// plus the copy-stamp table. useMark stays int64 because useEpoch never
// rewinds and must not wrap on a 32-bit int. The active and wfLinks lists
// hold each link at most once, so their capacity never needs to grow.
func (n *Net) allocLinkTables(nl int) {
	fs := make([]float64, 5*nl)
	n.linkWeight = fs[0*nl : 1*nl : 1*nl]
	n.wfFixed = fs[1*nl : 2*nl : 2*nl]
	n.wfWeight = fs[2*nl : 3*nl : 3*nl]
	n.wfShare = fs[3*nl : 4*nl : 4*nl]
	n.useMult = fs[4*nl : 5*nl : 5*nl]
	is := make([]int, 3*nl)
	n.activePos = is[0*nl : 1*nl : 1*nl]
	n.active = is[1*nl : 1*nl : 2*nl]
	n.wfLinks = is[2*nl : 2*nl : 3*nl]
	n.useMark = make([]int64, nl)
	n.provAt = math.Inf(1)
}

// Reset returns the memory system to its initial state — no flows, cold
// caches, buffer and flow numbering restarted, full link bandwidth, no
// timeline, a new stats sink — while keeping everything New computed or
// the last run warmed: the interned routes, the solver scratch, and the
// flow / pending / cache-entry pools. The engine binding is permanent;
// callers must Reset (or freshly construct) that engine too, which drops
// any still-pending completion event. A reset Net on a reset Engine is
// observably identical to memsim.New on a fresh engine — same timestamps,
// same rates, bit-identical runs — but simulates with far fewer
// allocations, which is what the sharded sweep runner in internal/bench
// reuses between cells. stats may be nil.
func (n *Net) Reset(stats *trace.Stats) {
	if stats == nil {
		stats = &trace.Stats{}
	}
	n.stats = stats
	stats.SetLinkNames(n.linkNames)
	n.tl = nil
	n.bwScale = nil
	n.islGroupLo, n.islGroupHi = nil, nil
	n.islDomLo, n.islDomHi = nil, nil
	for _, c := range n.caches {
		c.flush()
	}
	// A completed run leaves no flows; recycle defensively after an
	// aborted one.
	for i, f := range n.flows {
		n.freeFlow(f)
		n.flows[i] = nil
	}
	n.flows = n.flows[:0]
	n.completion = nil
	n.provAt = math.Inf(1)
	n.nextBuf, n.flowSeq = 0, 0
	n.repricePending, n.needSolve = false, false
	n.rateSolves = 0
	// Every link with nonzero weight is on the active list.
	for _, i := range n.active {
		n.linkWeight[i], n.activePos[i] = 0, 0
	}
	n.active = n.active[:0]
	// useEpoch stays monotone: useMark entries still carry old stamps, and
	// a rewound epoch could collide with them.
}

// SetClusterIslands scopes hardware cache coherence to the nodes of a
// compiled cluster: each node's cache groups form one coherence island,
// so cross-node cache hits and modified-line interventions — which no
// real fabric provides — cannot occur. Reads of remote memory stream from
// the home node's DRAM instead. Single machines (and a nil cluster) keep
// the default whole-machine island. The cluster must be the one this
// Net's machine was compiled from.
func (n *Net) SetClusterIslands(cl *topology.Cluster) {
	if cl == nil {
		n.islGroupLo, n.islGroupHi = nil, nil
		n.islDomLo, n.islDomHi = nil, nil
		return
	}
	if cl.Global != n.mach {
		panic("memsim: SetClusterIslands cluster does not match the Net's machine")
	}
	ng, nd := len(n.mach.Groups), len(n.mach.Domains)
	if len(n.islGroupLo) != ng {
		n.islGroupLo = make([]int32, ng)
		n.islGroupHi = make([]int32, ng)
		n.islDomLo = make([]int32, nd)
		n.islDomHi = make([]int32, nd)
	}
	for _, node := range cl.Nodes {
		lo, hi := int32(node.FirstGroup), int32(node.FirstGroup+node.NGroups)
		for g := lo; g < hi; g++ {
			n.islGroupLo[g], n.islGroupHi[g] = lo, hi
		}
		for d := node.FirstDomain; d < node.FirstDomain+node.NDomains; d++ {
			n.islDomLo[d], n.islDomHi[d] = lo, hi
		}
	}
}

// Machine returns the underlying hardware model.
func (n *Net) Machine() *topology.Machine { return n.mach }

// Engine returns the simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Stats returns the counter sink, with link-byte accounting folded in.
func (n *Net) Stats() *trace.Stats {
	n.stats.FlushLinks()
	return n.stats
}

// SetTimeline attaches a span recorder; every copy becomes a span on its
// executing engine's lane. Pass nil to disable (the default).
func (n *Net) SetTimeline(tl *trace.Timeline) { n.tl = tl }

// Timeline returns the attached span recorder (nil when disabled).
func (n *Net) Timeline() *trace.Timeline { return n.tl }

// LinkScaler supplies per-link bandwidth multipliers in (0, 1] — the
// fault-injection hook for degraded interconnects and slow cores (core
// copy engines are links too). Implemented by fault.Injector.
type LinkScaler interface {
	LinkScale(name string) float64
}

// SetLinkScaler snapshots the scaler's multiplier for every machine link.
// Pass nil to restore full bandwidth. Values outside (0, 1] are clamped
// to 1 so a misconfigured plan cannot stall the water-filling solver.
func (n *Net) SetLinkScaler(s LinkScaler) {
	if s == nil {
		n.bwScale = nil
		return
	}
	n.bwScale = make([]float64, len(n.mach.Links))
	for i, l := range n.mach.Links {
		f := s.LinkScale(l.Name)
		if f <= 0 || f > 1 {
			f = 1
		}
		n.bwScale[i] = f
	}
}

// linkBW returns link i's effective bandwidth under any active scaling.
func (n *Net) linkBW(i int) float64 {
	bw := n.mach.Links[i].BW
	if n.bwScale != nil {
		bw *= n.bwScale[i]
	}
	return bw
}

// Busy returns the number of in-flight flows (for tests).
func (n *Net) Busy() int { return len(n.flows) }

// Copy moves src to dst executed by core, blocking p until completion.
// Lengths must match. The executing core's copy engine, the read path
// (cache or DRAM), and the write path all contend with concurrent flows.
// The copy handle is recycled internally, so a blocking Copy allocates
// nothing in steady state.
func (n *Net) Copy(p *sim.Proc, core *topology.Core, dst, src View) {
	pe := n.CopyAsync(core, dst, src)
	pe.Wait(p)
	n.freePending(pe)
}

// newPending takes a handle from the pool or allocates one.
func (n *Net) newPending() *Pending {
	if k := len(n.pendPool); k > 0 {
		pe := n.pendPool[k-1]
		n.pendPool[k-1] = nil
		n.pendPool = n.pendPool[:k-1]
		return pe
	}
	return &Pending{}
}

// freePending recycles a completed handle. Only the blocking Copy path
// recycles: handles returned by CopyAsync/CopyDMA stay with the caller,
// which may hold them arbitrarily long.
func (n *Net) freePending(pe *Pending) {
	pe.done, pe.waiter = false, nil
	n.pendPool = append(n.pendPool, pe)
}

// CopyAsync starts a copy executed by core and returns immediately.
func (n *Net) CopyAsync(core *topology.Core, dst, src View) *Pending {
	return n.startCopy(core.Engine, core, dst, src)
}

// CopyDMA starts a copy offloaded to the DMA engine of the executing
// core's domain (Intel I/OAT style): the core's copy engine is not
// consumed, so the core is free to compute or issue further copies. It
// panics if the machine has no DMA engines.
func (n *Net) CopyDMA(core *topology.Core, dst, src View) *Pending {
	dma := n.mach.DMA[core.Domain.ID]
	if dma == nil {
		panic("memsim: CopyDMA on a machine without DMA engines")
	}
	return n.startCopy(dma, nil, dst, src)
}

// startCopy builds the flow. engine is the copy engine link (a core's or a
// DMA engine's); core is the executing core for cache purposes (nil for
// DMA, which bypasses caches).
func (n *Net) startCopy(engine *topology.Link, core *topology.Core, dst, src View) *Pending {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("memsim: copy length mismatch dst=%d src=%d", dst.Len, src.Len))
	}
	pe := n.newPending()
	if src.Len == 0 {
		pe.done = true
		return pe
	}
	reader := core
	if reader == nil {
		// DMA engines sit at the domain vertex; route from there.
		reader = n.mach.Domains[dmaDomain(n, engine)].Cores[0]
	}

	// Accumulate link multiplicities in first-use order through the
	// persistent epoch-stamped scratch (no per-copy map or slice).
	n.useEpoch++
	n.useLink(engine)

	// Read side: from the nearest cache holding the source range clean
	// (or dirty in the reader's own group); a remote dirty copy is a
	// modified-line intervention (owner's cache + interconnect + home
	// write-back); otherwise DRAM.
	cacheHit := false
	if core != nil {
		if g := n.findCached(core, src); g != nil {
			cacheHit = true
			n.useRoute(core.Vertex, n.routes.group(g))
		} else if g := n.dirtyOwner(core, src); g != nil {
			n.useRoute(core.Vertex, n.routes.group(g))
			n.useLink(src.Buf.Domain.Bus) // write-back to home memory
		} else {
			n.useRoute(reader.Vertex, n.routes.domain(src.Buf.Domain))
		}
	} else {
		n.useRoute(reader.Vertex, n.routes.domain(src.Buf.Domain))
	}
	// Write side: a destination already resident in the executing core's
	// cache absorbs the write at port speed (write hit; it turns dirty
	// and is charged to DRAM again once evicted and re-missed). Anything
	// else goes to the destination DRAM.
	writeHit := false
	if core != nil && n.caches[core.Group.ID].resident(dst.Buf.ID, dst.Off, dst.Len) {
		writeHit = true
		n.useLink(core.Group.Port)
	}
	if !writeHit {
		n.useRoute(reader.Vertex, n.routes.domain(dst.Buf.Domain))
	}

	f := n.newFlow()
	f.remaining, f.pending, f.started = float64(src.Len), pe, n.eng.Now()
	f.last = f.started
	n.flowSeq++
	f.seq = n.flowSeq
	for _, i := range n.useOrder {
		f.uses = append(f.uses, linkUse{link: n.mach.Links[i], idx: i, mult: n.useMult[i]})
	}
	n.useOrder = n.useOrder[:0]

	n.stats.Copies++
	n.stats.BytesCopied += src.Len
	if cacheHit {
		n.stats.CacheHits++
	} else {
		n.stats.CacheMisses++
	}
	for _, u := range f.uses {
		n.stats.AddLinkBytesIdx(u.idx, int64(u.mult*float64(src.Len)))
	}

	f.engine, f.core, f.src, f.dst = engine, core, src, dst
	n.addFlow(f)
	return pe
}

// finishFlow runs a completed flow's side effects: the data copy, cache
// touches, invalidations, and waking the waiter. It reads the flow's
// completion fields instead of a captured closure so startCopy stays
// allocation-free.
func (n *Net) finishFlow(f *flow) {
	src, dst := f.src, f.dst
	if n.tl != nil {
		n.tl.Add(f.engine.Name, "copy", f.started, n.eng.Now(),
			fmt.Sprintf("%dB dom%d->dom%d", src.Len, src.Buf.Domain.ID, dst.Buf.Domain.ID))
	}
	if src.Buf.Data != nil && dst.Buf.Data != nil {
		copy(dst.Bytes(), src.Bytes())
	}
	if f.core != nil {
		c := n.caches[f.core.Group.ID]
		c.touch(src.Buf.ID, src.Off, src.Len, false)
		c.touch(dst.Buf.ID, dst.Off, dst.Len, true)
		n.invalidateRange(dst.Buf.ID, dst.Off, dst.Len, f.core.Group, dst.Buf.Domain)
	} else {
		// DMA writes go to memory and invalidate the home island's caches.
		n.invalidateRange(dst.Buf.ID, dst.Off, dst.Len, nil, dst.Buf.Domain)
	}
	pe := f.pending
	pe.done = true
	if pe.waiter != nil {
		pe.waiter.Wake()
	}
}

// useLink accumulates one crossing of l into the epoch-stamped scratch,
// recording first use order. Small enough to inline into startCopy.
func (n *Net) useLink(l *topology.Link) {
	i := l.Index
	if n.useMark[i] != n.useEpoch {
		n.useMark[i] = n.useEpoch
		n.useMult[i] = 0
		n.useOrder = append(n.useOrder, i)
	}
	n.useMult[i]++
}

// dmaDomain finds which domain a DMA link belongs to.
func dmaDomain(n *Net, l *topology.Link) int {
	for i, d := range n.mach.DMA {
		if d == l {
			return i
		}
	}
	panic("memsim: unknown DMA link")
}

// newFlow takes a flow from the pool (uses capacity preserved) or
// allocates one.
func (n *Net) newFlow() *flow {
	if k := len(n.flowPool); k > 0 {
		f := n.flowPool[k-1]
		n.flowPool[k-1] = nil
		n.flowPool = n.flowPool[:k-1]
		return f
	}
	return &flow{}
}

// freeFlow recycles a completed flow.
func (n *Net) freeFlow(f *flow) {
	uses := f.uses[:0]
	*f = flow{uses: uses}
	n.flowPool = append(n.flowPool, f)
}

func (n *Net) addFlow(f *flow) {
	n.flows = append(n.flows, f)
	// Fast path: a flow sharing no link with any active flow cannot change
	// the bottleneck set. Its own rate is the min residual share over its
	// links (exactly what the full water-filling would assign it, since
	// every one of its links carries zero fixed load and only its own
	// weight), and every other rate is untouched.
	disjoint := true
	for _, u := range f.uses {
		if n.linkWeight[u.idx] != 0 {
			disjoint = false
			break
		}
	}
	for _, u := range f.uses {
		if n.linkWeight[u.idx] == 0 {
			n.activePos[u.idx] = len(n.active) + 1
			n.active = append(n.active, u.idx)
		}
		n.linkWeight[u.idx] += u.mult
	}
	if disjoint {
		rate := math.Inf(1)
		for _, u := range f.uses {
			if s := n.linkBW(u.idx) / u.mult; s < rate {
				rate = s
			}
		}
		f.rate = rate
		// No other rate moved, so the earliest completion can only move
		// earlier, to the newcomer's. A contended newcomer is unpriced
		// (rate 0) until the solve and leaves provAt alone.
		if t := f.last + f.remaining/f.rate; t < n.provAt {
			n.provAt = t
		}
		n.requestReprice(false)
		return
	}
	n.requestReprice(true)
}

// deactivate removes link i, whose weight just dropped to zero, from the
// active list by moving the last entry into its slot.
func (n *Net) deactivate(i int) {
	p := n.activePos[i] - 1
	last := n.active[len(n.active)-1]
	n.active[p] = last
	n.activePos[last] = p + 1
	n.active = n.active[:len(n.active)-1]
	n.activePos[i] = 0
}

// requestReprice is called on every flow change. Under a running engine
// the expensive water-filling is burst-batched: the change only marks
// needSolve, reschedules a provisional completion event (mirroring the
// historical per-change cancel/schedule churn so the event's sequence
// stream stays bit-identical), and defers flushReprice to the end of the
// instant, where the whole burst costs one solve and the provisional
// target is corrected in place with Engine.Retime — preserving the
// completion event's same-instant tie-break position exactly. The stale
// mid-burst rates are safe: no simulated time passes within an instant
// (advance sees dt = 0), and the final solve depends only on the final
// flow set — the same rates, bit for bit, that the solve-per-event code
// converged to (the disjoint fast path is exact, see
// TestDisjointFastPathExact). Outside Run (tests and tools driving the
// Net directly) the change is priced synchronously, the historical
// behaviour.
func (n *Net) requestReprice(solve bool) {
	if !n.eng.Running() {
		if solve {
			n.reschedule()
		} else {
			n.scheduleNext()
		}
		return
	}
	if solve {
		n.needSolve = true
	}
	n.scheduleProvisional()
	if !n.repricePending {
		n.repricePending = true
		n.eng.Defer(n.repriceFn)
	}
}

// provisionalFar is the placeholder delay used when no flow has been
// priced yet mid-burst. Any strictly positive value works: the deferred
// flushReprice retimes the event before the instant ends, so this delay
// can never become a simulated timestamp. It must NOT be zero — a
// zero-delay completion fires at the current instant, before the flush
// had a chance to price the burst, and onCompletion would reschedule it
// at zero forever (a same-instant livelock starving the flush).
const provisionalFar = 1.0

// testHookProvAt, when set (tests only), runs each time
// scheduleProvisional is about to consume the running minimum.
var testHookProvAt func(n *Net)

// scheduleProvisional mirrors scheduleNext's cancel/schedule pair but
// tolerates flows the deferred solve has not priced yet (rate 0): their
// completion target is unknown mid-burst, so the event's time is only
// provisional. flushReprice retimes it once the final rates stand.
//
// The target is provAt, the minimum over the priced flows, which every
// flow change keeps exact without rescanning the flow set: flushReprice
// and scheduleNext take it from the scan they already make, onCompletion
// from its pass over the survivors (whose state it does not touch), and
// addFlow's fast path folds in the one newly priced flow. Rates change
// nowhere else, and a minimum does not depend on scan order, so the
// target is bit-identical to a full rescan.
func (n *Net) scheduleProvisional() {
	if n.completion != nil {
		n.completion.Cancel()
		n.completion = nil
	}
	if len(n.flows) == 0 {
		return
	}
	if testHookProvAt != nil {
		testHookProvAt(n)
	}
	now := n.eng.Now()
	at := n.provAt
	if math.IsInf(at, 1) {
		// Every flow is still unpriced (e.g. the only rated flow just
		// finished at this instant while a new burst is pending): park
		// the event strictly in the future and let the flush settle it.
		at = now + provisionalFar
	} else if at < now {
		at = now
	}
	n.completion = n.eng.ScheduleOwnedAt(at, n.onCompletionFn)
}

// flushReprice ends the instant's burst: one water-filling over the final
// flow set (if any change needed it), then the completion event's
// provisional target is corrected in place. Retime preserves the event's
// sequence number, so ties against other events at the same future
// instant resolve exactly as they always did.
func (n *Net) flushReprice() {
	n.repricePending = false
	if n.needSolve {
		n.needSolve = false
		if len(n.flows) > 0 {
			n.recomputeRates()
		}
	}
	n.provAt = n.earliestCompletion()
	if n.completion == nil {
		return
	}
	now := n.eng.Now()
	at := n.provAt
	if at < now {
		at = now
	}
	if at != n.completion.Time() {
		n.eng.Retime(n.completion, at)
	}
}

// depleteTo charges f for the bandwidth it enjoyed since its last
// depletion. It is called only when f's rate is about to change (and on
// f's own completion), never because some unrelated flow started or
// finished — so a flow's floating-point accumulation is chopped exactly
// at its own rate-change instants. Rate changes only propagate over
// shared links, so a flow's result does not depend on which unrelated
// flows share the Net. A flow may land fractionally below zero because
// its completion instant was computed in floating point; anything beyond
// finishEps of overshoot means the scheduler lost track of it and is a
// bug, not drift, so it panics instead of silently clamping.
func (f *flow) depleteTo(now sim.Time) {
	if dt := now - f.last; dt > 0 {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			if f.remaining < -finishEps {
				panic(fmt.Sprintf("memsim: flow %d overshot completion by %g bytes", f.seq, -f.remaining))
			}
			f.remaining = 0
		}
	}
	f.last = now
}

const finishEps = 1e-3 // bytes; far below any modelled transfer granularity

// reschedule recomputes max-min fair rates and schedules the next
// completion event.
func (n *Net) reschedule() {
	if len(n.flows) > 0 {
		n.recomputeRates()
	}
	n.scheduleNext()
}

// scheduleNext (re)schedules the completion event for the earliest-
// finishing flow under the current rates.
func (n *Net) scheduleNext() {
	if n.completion != nil {
		n.completion.Cancel()
		n.completion = nil
	}
	n.provAt = n.earliestCompletion()
	if len(n.flows) == 0 {
		return
	}
	at := n.provAt
	if now := n.eng.Now(); at < now {
		at = now
	}
	n.completion = n.eng.ScheduleOwnedAt(at, n.onCompletionFn)
}

// earliestCompletion scans every flow, all of which must be priced, for
// the earliest completion instant (+Inf with no flows).
func (n *Net) earliestCompletion() sim.Time {
	at := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			panic("memsim: flow with zero rate")
		}
		if t := f.last + f.remaining/f.rate; t < at {
			at = t
		}
	}
	return at
}

func (n *Net) onCompletion() {
	n.completion = nil
	now := n.eng.Now()
	remaining := n.flows[:0]
	finished := n.finished[:0]
	provAt := math.Inf(1)
	for _, f := range n.flows {
		// Survivors are judged without mutation: depleting them here would
		// chop their accumulation at another flow's completion instant.
		if rem := f.remaining - f.rate*(now-f.last); rem <= finishEps {
			if rem < -finishEps {
				panic(fmt.Sprintf("memsim: flow %d overshot completion by %g bytes", f.seq, -rem))
			}
			f.remaining, f.last = 0, now
			finished = append(finished, f)
		} else {
			remaining = append(remaining, f)
			if f.rate > 0 {
				if t := f.last + f.remaining/f.rate; t < provAt {
					provAt = t
				}
			}
		}
	}
	n.flows = remaining
	n.provAt = provAt
	// Withdraw the finished flows, then check whether the survivors shared
	// any link with them; if not, the max-min allocation of the survivors
	// is unchanged and the full water-filling can be skipped.
	for _, f := range finished {
		for _, u := range f.uses {
			if n.linkWeight[u.idx] -= u.mult; n.linkWeight[u.idx] == 0 {
				n.deactivate(u.idx)
			}
		}
	}
	disjoint := true
	for _, f := range finished {
		for _, u := range f.uses {
			if n.linkWeight[u.idx] != 0 {
				disjoint = false
				break
			}
		}
		if !disjoint {
			break
		}
	}
	for _, f := range finished {
		n.finishFlow(f)
	}
	for i, f := range finished {
		n.freeFlow(f)
		finished[i] = nil
	}
	n.finished = finished[:0]
	n.requestReprice(!disjoint)
}

// recomputeRates runs progressive filling (water-filling) with per-link
// multiplicities: raise all unfixed flow rates uniformly until a link
// saturates, fix the flows crossing it, repeat. All working state lives in
// persistent scratch on Net, so the solver allocates nothing.
//
// Each round visits only the links some unfixed flow still crosses —
// starting from the active set and dropping a link once its working weight
// reaches zero — and computes each link's share once. Skipped links would
// contribute nothing to the minimum and are never consulted by a flow, and
// the minimum does not depend on visiting order, so share and saturation
// are exactly those of a scan over every link. The unfixed flows are kept
// in a compacted list in their original order, so each link's fixedLoad
// accumulates in the same order as ever: every rate is bit-identical.
func (n *Net) recomputeRates() {
	n.rateSolves++
	now := n.eng.Now()
	fixedLoad, weight, shares := n.wfFixed, n.wfWeight, n.wfShare
	// The working weights start from the incrementally maintained totals;
	// multiplicities are small integers, so the running sum is exact and
	// bit-identical to re-accumulating over the flows.
	links := append(n.wfLinks[:0], n.active...)
	for _, i := range links {
		fixedLoad[i] = 0
		weight[i] = n.linkWeight[i]
	}
	unfixed := append(n.wfFlows[:0], n.flows...)
	for len(unfixed) > 0 {
		// Find the bottleneck share, dropping links no unfixed flow crosses.
		share := math.Inf(1)
		k := 0
		for _, i := range links {
			if weight[i] <= 0 {
				continue
			}
			links[k] = i
			k++
			s := (n.linkBW(i) - fixedLoad[i]) / weight[i]
			shares[i] = s
			if s < share {
				share = s
			}
		}
		links = links[:k]
		if math.IsInf(share, 1) {
			panic("memsim: unfixed flows cross no links")
		}
		if share < 0 {
			share = 0
		}
		// Fix every unfixed flow crossing a link saturated at this share;
		// the rest move down the list in order.
		limit := share * (1 + 1e-12)
		k = 0
		for _, f := range unfixed {
			bottled := false
			for _, u := range f.uses {
				if shares[u.idx] <= limit {
					bottled = true
					break
				}
			}
			if !bottled {
				unfixed[k] = f
				k++
				continue
			}
			if share != f.rate {
				f.depleteTo(now)
				f.rate = share
			}
			for _, u := range f.uses {
				fixedLoad[u.idx] += share * u.mult
				weight[u.idx] -= u.mult
			}
		}
		if k == len(unfixed) {
			panic("memsim: water-filling made no progress")
		}
		unfixed = unfixed[:k]
	}
	n.wfFlows = unfixed
}
