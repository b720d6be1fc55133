// Package shm models the pre-allocated shared-memory transport that MPI
// implementations use within a node (Open MPI's SM BTL, MPICH2's Nemesis):
//
//   - a control mailbox per endpoint for small out-of-band messages
//     (match headers, rendezvous handshakes, KNEM cookies, ACKs), delivered
//     with a fixed latency and no bandwidth charge — these model the <64 B
//     inline cache-line exchanges of real implementations;
//
//   - per ordered pair of endpoints, a bounded FIFO of fixed-size fragment
//     slots living in a shared segment homed on the *receiver's* memory
//     domain. Payload moves by copy-in (sender core writes the slot) and
//     copy-out (receiver core reads it) — the double copy whose memory
//     traffic and cache pollution the paper's KNEM collectives eliminate.
package shm

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Msg is a control message.
type Msg struct {
	From    int
	Payload any
}

// Config sizes the transport.
type Config struct {
	// FragSize is the payload capacity of one FIFO slot (default 32 KiB,
	// Open MPI's sm default max fragment).
	FragSize int64
	// EagerMax is the largest payload sent eagerly as a single fragment
	// with no handshake (default 4 KiB).
	EagerMax int64
	// Depth is the number of slots per ordered pair (default 8).
	Depth int
	// WithData backs pair segments with real bytes so payload integrity
	// is testable; phantom segments (timing only) avoid allocating
	// O(pairs * Depth * FragSize) memory in large benchmark sweeps.
	WithData bool
}

func (c *Config) fill() {
	if c.FragSize == 0 {
		c.FragSize = 32 << 10
	}
	if c.EagerMax == 0 {
		c.EagerMax = 4 << 10
	}
	if c.Depth == 0 {
		c.Depth = 8
	}
	if c.EagerMax > c.FragSize {
		panic("shm: EagerMax exceeds FragSize")
	}
}

// Transport is the shared-memory fabric between a fixed set of endpoints
// (one per MPI rank), each pinned to a core.
type Transport struct {
	Cfg   Config
	net   *memsim.Net
	stats *trace.Stats
	cores []*topology.Core
	mail  []*sim.Chan[Msg]
	pairs map[[2]int]*Pair

	// deliverFn and dpool make SendCtrl allocation-free: each in-flight
	// control message rides a pooled delivery record through a pooled
	// arg-event instead of a fresh closure + event pair.
	deliverFn func(any)
	dpool     []*delivery

	// hasLat caches Machine.HasLatency so the single-machine control path
	// pays nothing for the cluster fabric-latency feature.
	hasLat bool
}

// delivery is one in-flight control message awaiting its latency event.
type delivery struct {
	to  int
	msg Msg
}

// New creates a transport with one endpoint per core in cores. The cores
// define where each endpoint executes and where its pair segments live.
//
// Transports are carved from the engine's arena: a warmed shard reuses
// the previous run's transport slot, mailbox channels (buckets, buffers,
// and waiter pools intact), delivery records, and pair FIFOs, so
// rebuilding the fabric for a repeat cell allocates nothing.
func New(net *memsim.Net, cores []*topology.Core, cfg Config) *Transport {
	cfg.fill()
	arena := net.Engine().Arena()
	t := sim.SlabFor[Transport](arena).Get()
	t.Cfg, t.net, t.stats, t.cores = cfg, net, net.Stats(), cores
	if t.pairs == nil {
		t.pairs = make(map[[2]int]*Pair)
	} else {
		clear(t.pairs)
	}
	t.hasLat = net.Machine().HasLatency()
	if t.deliverFn == nil {
		t.deliverFn = t.deliver // built once per slot; t is recycled in place
	}
	// t.dpool is kept: recycled delivery records stay valid.
	t.mail = sim.SlicesFor[*sim.Chan[Msg]](arena).Make(len(cores))
	chans := sim.SlabFor[sim.Chan[Msg]](arena)
	for i := range t.mail {
		ch := chans.Get()
		sim.ReinitChan(ch, net.Engine(), 1<<30)
		t.mail[i] = ch
	}
	return t
}

// Net returns the underlying memory simulator.
func (t *Transport) Net() *memsim.Net { return t.net }

// Core returns the core endpoint id executes on.
func (t *Transport) Core(id int) *topology.Core { return t.cores[id] }

// N returns the number of endpoints.
func (t *Transport) N() int { return len(t.cores) }

// SendCtrl delivers a small control message from -> to after the machine's
// control latency, plus any wire latency on the path between the two
// endpoints' vertices (cluster fabric links; zero on single machines). It
// does not block the sender.
func (t *Transport) SendCtrl(from, to int, payload any) {
	if to < 0 || to >= len(t.mail) {
		panic(fmt.Sprintf("shm: SendCtrl to invalid endpoint %d", to))
	}
	t.stats.CtrlMsgs++
	lat := t.net.Machine().Spec.CtrlLatency
	if t.hasLat && from >= 0 && from < len(t.cores) {
		lat += t.net.Machine().PathLatency(t.cores[from].Vertex, t.cores[to].Vertex)
	}
	d := t.newDelivery()
	d.to, d.msg = to, Msg{From: from, Payload: payload}
	t.net.Engine().ScheduleOwnedArg(lat, t.deliverFn, d)
}

// deliver fires when a control message's latency elapses.
func (t *Transport) deliver(a any) {
	d := a.(*delivery)
	if !t.mail[d.to].TrySend(d.msg) {
		panic("shm: mailbox overflow")
	}
	d.msg = Msg{}
	t.dpool = append(t.dpool, d)
}

// newDelivery takes a delivery record from the pool or allocates one.
func (t *Transport) newDelivery() *delivery {
	if k := len(t.dpool); k > 0 {
		d := t.dpool[k-1]
		t.dpool[k-1] = nil
		t.dpool = t.dpool[:k-1]
		return d
	}
	return &delivery{}
}

// RecvCtrl blocks p until a control message arrives for endpoint self.
func (t *Transport) RecvCtrl(p *sim.Proc, self int) Msg {
	return t.mail[self].Recv(p)
}

// TryRecvCtrl returns a pending control message without blocking.
func (t *Transport) TryRecvCtrl(self int) (Msg, bool) {
	return t.mail[self].TryRecv()
}

// Pair is the bounded slot FIFO for one ordered (sender -> receiver) pair.
// Slots are acquired by the sender in order and must be released by the
// receiver in the same order (the usual free-list discipline of SM BTLs).
type Pair struct {
	tr      *Transport
	slots   []memsim.View
	free    *sim.Semaphore
	nextIn  int64
	nextOut int64
}

// Pair returns (creating lazily) the FIFO for messages from -> to. The
// backing segment is allocated on the receiver's memory domain. Pair
// slots are arena-recycled like the transport itself; each slot owns its
// semaphore for good.
func (t *Transport) Pair(from, to int) *Pair {
	key := [2]int{from, to}
	if pr, ok := t.pairs[key]; ok {
		return pr
	}
	seg := t.net.Alloc(t.cores[to].Domain, int64(t.Cfg.Depth)*t.Cfg.FragSize, t.Cfg.WithData)
	pr := sim.SlabFor[Pair](t.net.Engine().Arena()).Get()
	pr.tr = t
	if pr.free == nil {
		pr.free = sim.NewSemaphore(t.Cfg.Depth)
	} else {
		sim.ReinitSemaphore(pr.free, t.Cfg.Depth)
	}
	pr.slots = pr.slots[:0]
	pr.nextIn, pr.nextOut = 0, 0
	for i := 0; i < t.Cfg.Depth; i++ {
		pr.slots = append(pr.slots, seg.View(int64(i)*t.Cfg.FragSize, t.Cfg.FragSize))
	}
	t.pairs[key] = pr
	return pr
}

// Slot returns the slot used by the seq-th fragment of this pair. Callers
// managing flow control themselves (e.g. the MPI credit protocol) index
// slots by monotonically increasing sequence number; the slot storage
// rotates with period Depth.
func (pr *Pair) Slot(seq int64) memsim.View {
	return pr.slots[seq%int64(len(pr.slots))]
}

// Depth returns the number of slots.
func (pr *Pair) Depth() int { return len(pr.slots) }

// AcquireSlot blocks p until a slot is free and returns it (sender side).
func (pr *Pair) AcquireSlot(p *sim.Proc) memsim.View {
	pr.free.Acquire(p, 1)
	v := pr.slots[pr.nextIn%int64(len(pr.slots))]
	pr.nextIn++
	return v
}

// ReleaseSlot frees the oldest in-use slot (receiver side).
func (pr *Pair) ReleaseSlot() {
	pr.nextOut++
	if pr.nextOut > pr.nextIn {
		panic("shm: ReleaseSlot without matching AcquireSlot")
	}
	pr.free.Release(1)
}

// CopyIn writes src into slot using the sender's core (first copy of the
// double copy).
func (t *Transport) CopyIn(p *sim.Proc, sender int, slot memsim.View, src memsim.View) {
	if src.Len > slot.Len {
		panic("shm: fragment larger than slot")
	}
	t.net.Copy(p, t.cores[sender], slot.SubView(0, src.Len), src)
}

// CopyOut reads slot into dst using the receiver's core (second copy).
func (t *Transport) CopyOut(p *sim.Proc, receiver int, dst memsim.View, slot memsim.View) {
	if dst.Len > slot.Len {
		panic("shm: fragment larger than slot")
	}
	t.net.Copy(p, t.cores[receiver], dst, slot.SubView(0, dst.Len))
}
