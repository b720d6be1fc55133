package mpi

import (
	"fmt"

	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/shm"
)

// Point-to-point engine. Three protocols, selected by message size and the
// world's BTL:
//
//   - eager (size <= shm EagerMax): the sender copies the payload into a
//     FIFO slot inside MPI_Isend and signals with a control message; an
//     unmatched arrival is copied once more into an unexpected buffer.
//
//   - SM rendezvous: RTS/CTS handshake, then the payload streams through
//     bounded FIFO slots — copy-in by the sender core, copy-out by the
//     receiver core: the double copy of copy-in/copy-out transports.
//
//   - KNEM rendezvous (BTLKNEM): the sender declares its buffer to the
//     kernel module and ships the cookie in the RTS; the receiver performs
//     one single-copy read and replies FIN, after which the sender
//     deregisters. One registration and one copy per message — but a new
//     registration for every message and every peer, which is precisely
//     the overhead the paper's collective component amortizes away.
//
// Flow control uses credits: each ordered pair starts with Depth credits;
// consuming a slot costs one, and the receiver returns one after each
// copy-out. A rank that must wait (for credits, a match, or completion)
// processes its incoming control messages, so cyclic communication
// patterns (e.g. all-to-all) cannot deadlock.

type reqKind int

const (
	reqSend reqKind = iota
	reqRecv
)

type reqState int

const (
	statePending reqState = iota
	stateStreaming
	stateDone
)

// Request is a nonblocking operation handle.
type Request struct {
	r     *Rank
	kind  reqKind
	peer  int
	tag   int
	view  memsim.View
	id    int64
	state reqState

	// Receive side.
	received    int64
	total       int64
	matchedFrom int

	// Send side.
	recvID int64
	cookie knem.Cookie
}

// Done reports completion.
func (q *Request) Done() bool { return q.state == stateDone }

// Source returns the matched source of a completed receive (useful with
// AnySource).
func (q *Request) Source() int { return q.matchedFrom }

// Len returns the actual number of bytes of a completed receive.
func (q *Request) Len() int64 { return q.total }

// Control message payloads.
type (
	eagerMsg struct {
		tag     int
		n       int64
		slotSeq int64
	}
	rtsMsg struct {
		tag    int
		n      int64
		sendID int64
		cookie knem.Cookie // 0 for SM rendezvous
	}
	ctsMsg struct {
		sendID int64
		recvID int64
	}
	fragMsg struct {
		recvID  int64
		slotSeq int64
		n       int64
		off     int64
	}
	finMsg struct {
		sendID int64
	}
	creditMsg struct{}
	oobCtrl   struct {
		tag  int
		data any
	}
)

type oobMsg struct {
	from int
	tag  int
	data any
}

// inHdr is an arrived message header with no matching posted receive.
type inHdr struct {
	src  int
	tag  int
	n    int64
	temp *memsim.Buffer // eager payload parked in an unexpected buffer
	rts  *rtsMsg        // rendezvous waiting for a matching receive
}

func match(src, tag, wantSrc, wantTag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && (wantTag == AnyTag || wantTag == tag)
}

// Isend starts a send. Eager sends copy the payload before returning (as
// real shared-memory MPIs do inside MPI_Isend); rendezvous sends return
// immediately and progress during Wait.
func (r *Rank) Isend(to, tag int, v memsim.View) *Request {
	if to < 0 || to >= r.Size() {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", to))
	}
	q := &Request{r: r, kind: reqSend, peer: to, tag: tag, view: v}
	if v.Len <= r.w.tr.Cfg.EagerMax {
		r.takeCredit(to)
		seq := r.sendSeq[to]
		r.sendSeq[to]++
		slot := r.w.tr.Pair(r.id, to).Slot(seq)
		r.w.tr.CopyIn(r.proc, r.id, slot, v)
		r.w.tr.SendCtrl(r.id, to, eagerMsg{tag: tag, n: v.Len, slotSeq: seq})
		q.state = stateDone
		return q
	}
	r.nextReq++
	q.id = r.nextReq
	r.activeSend[q.id] = q
	rts := rtsMsg{tag: tag, n: v.Len, sendID: q.id}
	if r.w.opts.BTL == BTLKNEM && v.Len >= r.w.opts.KnemMin {
		c, err := r.w.kn.Create(r.proc, r.id, []memsim.View{v}, knem.DirRead)
		if err == nil {
			q.cookie = c
			rts.cookie = c
		} else {
			// Registration failed (pinned-page exhaustion or an injected
			// fault): degrade this message to the SM fragment pipeline.
			// The RTS carries no cookie, so the receiver runs the
			// copy-in/copy-out rendezvous.
			r.w.net.Stats().Fallbacks++
		}
	}
	r.w.tr.SendCtrl(r.id, to, rts)
	return q
}

// Irecv posts a receive. The buffer must be at least as large as the
// incoming message.
func (r *Rank) Irecv(src, tag int, v memsim.View) *Request {
	q := &Request{r: r, kind: reqRecv, peer: src, tag: tag, view: v, matchedFrom: -1}
	for i, h := range r.unexpected {
		if match(h.src, h.tag, src, tag) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			r.deliver(q, h)
			return q
		}
	}
	r.posted = append(r.posted, q)
	return q
}

// deliver completes or activates a receive from an unexpected header.
func (r *Rank) deliver(q *Request, h *inHdr) {
	q.matchedFrom = h.src
	q.total = h.n
	if h.n > q.view.Len {
		panic(fmt.Sprintf("mpi: rank %d: message of %d bytes truncated into %d-byte buffer (src=%d tag=%d)",
			r.id, h.n, q.view.Len, h.src, h.tag))
	}
	if h.temp != nil {
		// Parked eager payload: one more local copy to the user buffer.
		r.LocalCopy(q.view.SubView(0, h.n), h.temp.View(0, h.n))
		q.state = stateDone
		return
	}
	r.matchRTS(q, h.src, h.rts)
}

// matchRTS runs the receiver side of a rendezvous.
func (r *Rank) matchRTS(q *Request, src int, rts *rtsMsg) {
	dst := q.view.SubView(0, rts.n)
	if rts.cookie != 0 {
		// KNEM single copy, performed by the receiving core.
		err := r.w.kn.Copy(r.proc, r.core, []memsim.View{dst}, rts.cookie, 0, knem.DirRead)
		if err == nil {
			r.w.tr.SendCtrl(r.id, src, finMsg{sendID: rts.sendID})
			q.state = stateDone
			return
		}
		if r.w.kn.Injector() == nil {
			panic("mpi: knem copy failed: " + err.Error())
		}
		// The single copy failed under a fault plan (transient fault or
		// invalidated cookie): degrade to the SM fragment pipeline. The
		// CTS tells the sender to drop its region and stream instead.
		r.w.net.Stats().Fallbacks++
	}
	r.nextReq++
	q.id = r.nextReq
	r.activeRecv[q.id] = q
	r.w.tr.SendCtrl(r.id, src, ctsMsg{sendID: rts.sendID, recvID: q.id})
}

// Wait blocks until all given requests complete, progressing the rank's
// message engine (and pushing rendezvous fragments) meanwhile.
func (r *Rank) Wait(reqs ...*Request) {
	for {
		r.pushStreams()
		allDone := true
		for _, q := range reqs {
			if q.state != stateDone {
				allDone = false
			}
		}
		if allDone {
			return
		}
		r.progressOne()
	}
}

// pushStreams drains every send whose CTS has arrived. Any rendezvous send
// of this rank can become streamable while it blocks in an unrelated call;
// pushing them all here keeps cyclic patterns deadlock-free.
func (r *Rank) pushStreams() {
	for {
		var pick *Request
		for _, q := range r.activeSend {
			if q.state == stateStreaming && (pick == nil || q.id < pick.id) {
				pick = q
			}
		}
		if pick == nil {
			return
		}
		r.stream(pick)
	}
}

// Send is a blocking send.
func (r *Rank) Send(to, tag int, v memsim.View) { r.Wait(r.Isend(to, tag, v)) }

// Recv is a blocking receive; it returns the matched source and length.
func (r *Rank) Recv(src, tag int, v memsim.View) (int, int64) {
	q := r.Irecv(src, tag, v)
	r.Wait(q)
	return q.matchedFrom, q.total
}

// Sendrecv posts the receive, runs the send, and waits for both.
func (r *Rank) Sendrecv(to, stag int, sv memsim.View, from, rtag int, rv memsim.View) {
	q := r.Irecv(from, rtag, rv)
	s := r.Isend(to, stag, sv)
	r.Wait(s, q)
}

// stream pushes the fragments of an SM rendezvous send.
func (r *Rank) stream(q *Request) {
	frag := r.w.tr.Cfg.FragSize
	pair := r.w.tr.Pair(r.id, q.peer)
	for off := int64(0); off < q.view.Len; {
		n := frag
		if rem := q.view.Len - off; rem < n {
			n = rem
		}
		r.takeCredit(q.peer)
		seq := r.sendSeq[q.peer]
		r.sendSeq[q.peer]++
		slot := pair.Slot(seq)
		r.w.tr.CopyIn(r.proc, r.id, slot, q.view.SubView(off, n))
		r.w.tr.SendCtrl(r.id, q.peer, fragMsg{recvID: q.recvID, slotSeq: seq, n: n, off: off})
		off += n
	}
	q.state = stateDone
	delete(r.activeSend, q.id)
}

// takeCredit consumes one FIFO credit toward rank to, progressing until
// one is available.
func (r *Rank) takeCredit(to int) {
	if _, ok := r.credits[to]; !ok {
		r.credits[to] = r.w.tr.Cfg.Depth
	}
	for r.credits[to] == 0 {
		r.progressOne()
	}
	r.credits[to]--
}

// progressOne blocks on the control mailbox and dispatches one message.
func (r *Rank) progressOne() {
	r.dispatch(r.w.tr.RecvCtrl(r.proc, r.id))
}

// dispatch routes one delivered control message.
func (r *Rank) dispatch(msg shm.Msg) {
	switch m := msg.Payload.(type) {
	case eagerMsg:
		r.onEager(msg.From, m)
	case rtsMsg:
		r.onRTS(msg.From, m)
	case ctsMsg:
		q := r.activeSend[m.sendID]
		if q == nil {
			panic("mpi: CTS for unknown send")
		}
		if q.cookie != 0 {
			// The receiver degraded a KNEM rendezvous to SM streaming;
			// the region is no longer needed (and may already be gone
			// if a fault invalidated it).
			if err := r.w.kn.Destroy(r.proc, q.cookie); err != nil && err != knem.ErrInvalidCookie {
				panic("mpi: knem destroy failed: " + err.Error())
			}
			q.cookie = 0
		}
		q.recvID = m.recvID
		q.state = stateStreaming
	case fragMsg:
		r.onFrag(msg.From, m)
	case finMsg:
		q := r.activeSend[m.sendID]
		if q == nil {
			panic("mpi: FIN for unknown send")
		}
		if err := r.w.kn.Destroy(r.proc, q.cookie); err != nil {
			panic("mpi: knem destroy failed: " + err.Error())
		}
		q.state = stateDone
		delete(r.activeSend, m.sendID)
	case creditMsg:
		r.credits[msg.From]++
	case *oobCtrl:
		r.oobQ = append(r.oobQ, oobMsg{from: msg.From, tag: m.tag, data: m.data})
		m.data = nil
		r.w.oobPool = append(r.w.oobPool, m)
	default:
		panic(fmt.Sprintf("mpi: unknown control payload %T", msg.Payload))
	}
}

// onEager handles an arrived eager fragment.
func (r *Rank) onEager(src int, m eagerMsg) {
	slot := r.w.tr.Pair(src, r.id).Slot(m.slotSeq)
	if q := r.takePosted(src, m.tag); q != nil {
		if m.n > q.view.Len {
			panic("mpi: eager truncation")
		}
		q.matchedFrom = src
		q.total = m.n
		r.w.tr.CopyOut(r.proc, r.id, q.view.SubView(0, m.n), slot)
		r.w.tr.SendCtrl(r.id, src, creditMsg{})
		q.state = stateDone
		return
	}
	// Unexpected: park the payload so the slot frees in FIFO order.
	temp := r.w.net.Alloc(r.core.Domain, m.n, q0data(slot))
	r.w.tr.CopyOut(r.proc, r.id, temp.Whole(), slot)
	r.w.tr.SendCtrl(r.id, src, creditMsg{})
	r.unexpected = append(r.unexpected, &inHdr{src: src, tag: m.tag, n: m.n, temp: temp})
}

// q0data reports whether the slot carries real bytes (so the parked copy
// does too).
func q0data(v memsim.View) bool { return v.Bytes() != nil }

// onRTS handles a rendezvous request.
func (r *Rank) onRTS(src int, m rtsMsg) {
	mm := m
	if q := r.takePosted(src, m.tag); q != nil {
		q.matchedFrom = src
		q.total = m.n
		if m.n > q.view.Len {
			panic("mpi: rendezvous truncation")
		}
		r.matchRTS(q, src, &mm)
		return
	}
	r.unexpected = append(r.unexpected, &inHdr{src: src, tag: m.tag, n: m.n, rts: &mm})
}

// onFrag handles one rendezvous fragment.
func (r *Rank) onFrag(src int, m fragMsg) {
	q := r.activeRecv[m.recvID]
	if q == nil {
		panic("mpi: fragment for unknown receive")
	}
	if m.off != q.received {
		panic("mpi: out-of-order fragment")
	}
	slot := r.w.tr.Pair(src, r.id).Slot(m.slotSeq)
	r.w.tr.CopyOut(r.proc, r.id, q.view.SubView(m.off, m.n), slot)
	r.w.tr.SendCtrl(r.id, src, creditMsg{})
	q.received += m.n
	if q.received == q.total {
		q.state = stateDone
		delete(r.activeRecv, q.id)
	}
}

// takePosted removes and returns the first posted receive matching
// (src, tag), or nil.
func (r *Rank) takePosted(src, tag int) *Request {
	for i, q := range r.posted {
		if match(src, tag, q.peer, q.tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return q
		}
	}
	return nil
}

// --- Out-of-band messaging ----------------------------------------------

// SendOOB delivers a small out-of-band value (cookie, sync token) to rank
// to. It models an inline cache-line exchange: control latency only, no
// bandwidth. This is the "shared memory BTL as out-of-band channel" of
// §V-A.
func (r *Rank) SendOOB(to, tag int, data any) {
	var m *oobCtrl
	if k := len(r.w.oobPool); k > 0 {
		m = r.w.oobPool[k-1]
		r.w.oobPool[k-1] = nil
		r.w.oobPool = r.w.oobPool[:k-1]
	} else {
		m = &oobCtrl{}
	}
	m.tag, m.data = tag, data
	r.w.tr.SendCtrl(r.id, to, m)
}

// RecvOOB blocks until an out-of-band value with the given tag arrives
// from src (or AnySource); it returns the value and the actual source.
func (r *Rank) RecvOOB(src, tag int) (any, int) {
	for {
		for i, m := range r.oobQ {
			if match(m.from, m.tag, src, tag) {
				r.oobQ = append(r.oobQ[:i], r.oobQ[i+1:]...)
				return m.data, m.from
			}
		}
		r.pushStreams()
		r.progressOne()
	}
}

// TryRecvOOB returns a matching out-of-band value if one has already
// arrived, draining delivered control traffic without blocking. Fault
// recovery uses it to service resend requests while waiting for protocol
// tokens.
func (r *Rank) TryRecvOOB(src, tag int) (any, int, bool) {
	for {
		for i, m := range r.oobQ {
			if match(m.from, m.tag, src, tag) {
				r.oobQ = append(r.oobQ[:i], r.oobQ[i+1:]...)
				return m.data, m.from, true
			}
		}
		msg, ok := r.w.tr.TryRecvCtrl(r.id)
		if !ok {
			return nil, 0, false
		}
		r.dispatch(msg)
	}
}

// ProgressOOB pushes pending rendezvous streams and blocks until one more
// control message is delivered. Service loops alternate TryRecvOOB polls
// with ProgressOOB so they advance simulated time only when idle.
func (r *Rank) ProgressOOB() {
	r.pushStreams()
	r.progressOne()
}

// --- Probing --------------------------------------------------------------

// Status describes a matched but not yet received message.
type Status struct {
	Source int
	Tag    int
	Len    int64
}

// findHeader scans the unexpected queue for a match.
func (r *Rank) findHeader(src, tag int) (Status, bool) {
	for _, h := range r.unexpected {
		if match(h.src, h.tag, src, tag) {
			return Status{Source: h.src, Tag: h.tag, Len: h.n}, true
		}
	}
	return Status{}, false
}

// Iprobe reports whether a message matching (src, tag) has arrived,
// without receiving it. It progresses pending protocol traffic first.
func (r *Rank) Iprobe(src, tag int) (Status, bool) {
	for {
		if st, ok := r.findHeader(src, tag); ok {
			return st, true
		}
		msg, ok := r.w.tr.TryRecvCtrl(r.id)
		if !ok {
			return Status{}, false
		}
		r.dispatch(msg)
	}
}

// Probe blocks until a message matching (src, tag) is available and
// returns its envelope; the message stays queued for a subsequent Recv.
func (r *Rank) Probe(src, tag int) Status {
	for {
		if st, ok := r.findHeader(src, tag); ok {
			return st
		}
		r.pushStreams()
		r.progressOne()
	}
}

// Waitany blocks until at least one of the requests completes and returns
// its index.
func (r *Rank) Waitany(reqs ...*Request) int {
	if len(reqs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	for {
		r.pushStreams()
		for i, q := range reqs {
			if q.state == stateDone {
				return i
			}
		}
		r.progressOne()
	}
}

// Testall reports whether every request has completed, progressing any
// already-delivered protocol traffic without blocking.
func (r *Rank) Testall(reqs ...*Request) bool {
	for {
		r.pushStreams()
		done := true
		for _, q := range reqs {
			if q.state != stateDone {
				done = false
			}
		}
		if done {
			return true
		}
		msg, ok := r.w.tr.TryRecvCtrl(r.id)
		if !ok {
			return false
		}
		r.dispatch(msg)
	}
}
