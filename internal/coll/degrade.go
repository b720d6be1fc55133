package coll

import (
	"fmt"

	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
)

// Degradation toolkit of the KNEM region protocols (internal/core and
// internal/coll/hier); the package comment states the invariants it
// serves.

// Ack is a peer's response to a region owner after a completed access. It
// is zero-sized, so sending it boxes nothing.
type Ack struct{}

// Nack is a peer's response after it lost the owner's region: it still
// needs the N bytes at offset Off of the region, point-to-point.
type Nack struct {
	Off, N int64
}

// Resend is one NACK a region owner collected, with the peer that sent it.
type Resend struct {
	From int
	Nack
}

// Faulty reports whether r's world injects faults, i.e. whether the
// degradation branches of the protocols can run at all.
func Faulty(r *mpi.Rank) bool { return r.Knem().Injector() != nil }

// Straggle delays r by the fault plan's straggler delay for it; every
// collective entry calls it.
func Straggle(r *mpi.Rank) {
	if in := r.Knem().Injector(); in != nil {
		if d := in.Straggle(r.ID()); d > 0 {
			r.Sleep(d)
		}
	}
}

// TryCreate registers v as a region, retrying transient failures with the
// plan's backoff. A persistent failure returns ok=false and the caller
// degrades; without an injector a failure is a bug and panics.
func TryCreate(r *mpi.Rank, v memsim.View, dir knem.Direction) (knem.Cookie, bool) {
	in := r.Knem().Injector()
	for attempt := 0; ; attempt++ {
		ck, err := r.Knem().CreateView(r.Proc(), r.ID(), v, dir)
		switch {
		case err == nil:
			return ck, true
		case in == nil:
			panic(fmt.Sprintf("coll: rank %d knem create: %v", r.ID(), err))
		case err == knem.ErrAgain && attempt < in.MaxRetries():
			r.Stats().Retries++
			r.Sleep(in.Backoff(attempt))
		default:
			return 0, false
		}
	}
}

// TryCopy copies local through region ck at off, retrying transient
// failures. The terminal error (an invalidated cookie, or a transient that
// outlived the retry budget) is returned for the caller's NACK path;
// without an injector a failure is a bug and panics.
func TryCopy(r *mpi.Rank, local memsim.View, ck knem.Cookie, off int64, dir knem.Direction) error {
	if err := copyView(r, local, ck, off, dir); err != nil {
		return retryCopy(r, local, ck, off, dir, err)
	}
	return nil
}

// copyView is one copy attempt. It inlines, and the retries live in
// retryCopy, so that between a protocol and the kernel module the
// fault-free path adds at most one small frame: every rank's copy runs on
// its own coroutine stack, and a deeper chain there makes thousands of
// those stacks grow. One extra 200-byte frame under the copies made the
// 10,240-rank cluster cell about 20% slower in host time (2-CPU x86-64,
// go1.24), nearly all of it in runtime.newstack.
func copyView(r *mpi.Rank, local memsim.View, ck knem.Cookie, off int64, dir knem.Direction) error {
	return r.Knem().CopyView(r.Proc(), r.Core(), local, ck, off, dir)
}

// retryCopy continues TryCopy after the failed attempt that returned err.
func retryCopy(r *mpi.Rank, local memsim.View, ck knem.Cookie, off int64, dir knem.Direction, err error) error {
	in := r.Knem().Injector()
	for attempt := 0; ; attempt++ {
		switch {
		case in == nil:
			panic(fmt.Sprintf("coll: rank %d knem copy: %v", r.ID(), err))
		case err == knem.ErrAgain && attempt < in.MaxRetries():
			r.Stats().Retries++
			r.Sleep(in.Backoff(attempt))
		default:
			return err
		}
		if err = copyView(r, local, ck, off, dir); err == nil {
			return nil
		}
	}
}

// Destroy deregisters region ck; a zero ck (no region was registered) is a
// no-op. Under a fault plan the region may already be gone — an injected
// invalidation tears it down — and that is not an error.
func Destroy(r *mpi.Rank, ck knem.Cookie) {
	if ck == 0 {
		return
	}
	err := r.Knem().Destroy(r.Proc(), ck)
	if err != nil && (err != knem.ErrInvalidCookie || !Faulty(r)) {
		panic(fmt.Sprintf("coll: rank %d knem destroy: %v", r.ID(), err))
	}
}

// NoteFallback counts one operation degraded because a registration failed.
func NoteFallback(r *mpi.Rank, op string) {
	r.Stats().Fallbacks++
	event(r, "fallback", op)
}

// NoteResend counts one point-to-point resend of lost region data.
func NoteResend(r *mpi.Rank, op string) {
	r.Stats().Resends++
	event(r, "resend", op)
}

func event(r *mpi.Rank, kind, op string) {
	if in := r.Knem().Injector(); in != nil {
		in.Event(kind, fmt.Sprintf("rank %d %s", r.ID(), op))
	}
}

// Access copies local through the owner's region ck at off — reading for
// DirRead, writing for DirWrite — and answers the owner once on respTag:
// an Ack, or, if the region is lost, a Nack followed by the same bytes
// point-to-point on dataTag.
func Access(r *mpi.Rank, local memsim.View, ck knem.Cookie, off int64, dir knem.Direction, owner, respTag, dataTag int) {
	err := copyView(r, local, ck, off, dir)
	if err != nil {
		err = retryCopy(r, local, ck, off, dir, err)
	}
	if err != nil {
		refetch(r, local, off, dir, owner, respTag, dataTag)
		return
	}
	r.SendOOB(owner, respTag, Ack{})
}

// ReadSegment reads segment [off, off+n) of v from the owner's region ck,
// for a reader that answers once per pipelined operation. If the region is
// lost it NACKs and receives the rest of v point-to-point on dataTag, and
// returns 0: the caller reads no further segment and owes no Ack. A zero ck
// reads nothing.
func ReadSegment(r *mpi.Rank, v memsim.View, off, n int64, ck knem.Cookie, owner, respTag, dataTag int) knem.Cookie {
	if ck == 0 {
		return 0
	}
	err := copyView(r, v.SubView(off, n), ck, off, knem.DirRead)
	if err != nil {
		err = retryCopy(r, v.SubView(off, n), ck, off, knem.DirRead, err)
	}
	if err == nil {
		return ck
	}
	refetch(r, v.SubView(off, v.Len-off), off, knem.DirRead, owner, respTag, dataTag)
	return 0
}

// refetch tells the owner that local, at offset off of its region, must
// move point-to-point, and moves it.
func refetch(r *mpi.Rank, local memsim.View, off int64, dir knem.Direction, owner, respTag, dataTag int) {
	r.SendOOB(owner, respTag, Nack{Off: off, N: local.Len})
	if dir == knem.DirRead {
		r.Recv(owner, dataTag, local)
	} else {
		r.Send(owner, dataTag, local)
	}
}

// Collect receives the n responses owed to a region owner on respTag and
// returns the NACKs among them in arrival order; nil when every peer
// ACKed. Once it returns, no peer touches the region again.
func Collect(r *mpi.Rank, respTag, n int) []Resend {
	var nacks []Resend
	for i := 0; i < n; i++ {
		m, from := r.RecvOOB(mpi.AnySource, respTag)
		if nk, ok := m.(Nack); ok {
			nacks = append(nacks, Resend{From: from, Nack: nk})
		}
	}
	return nacks
}

// Serve answers collected NACKs point-to-point on dataTag from the owner's
// region v, in order: it sends the requested bytes of a read region and
// receives them into a write region, counting each as a resend of op.
func Serve(r *mpi.Rank, v memsim.View, dir knem.Direction, nacks []Resend, dataTag int, op string) {
	for _, nk := range nacks {
		NoteResend(r, op)
		if dir == knem.DirRead {
			r.Send(nk.From, dataTag, v.SubView(nk.Off, nk.N))
		} else {
			r.Recv(nk.From, dataTag, v.SubView(nk.Off, nk.N))
		}
	}
}
