package core

import (
	"repro/internal/coll"
	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
)

// Ring-style KNEM Allgather — the improvement the paper announces for the
// "next release" (§VI-D): instead of composing Gather+Bcast through one
// root (whose NUMA node's memory bandwidth caps the whole operation on
// large nodes), blocks travel around the rank ring, one single-copy read
// per step from the left neighbor's receive buffer. Memory accesses are
// spread evenly across all memory controllers, most reads are
// intra-domain (ring neighbors share NUMA nodes under the linear
// rank-to-core mapping) and frequently land in the neighbor's still-warm
// cache.
//
// Protocol: every rank places its contribution in its receive buffer and
// declares the whole buffer as a read region; the cookie goes to the right
// neighbor. At step s a rank reads block (me-s-1 mod p) from its left
// neighbor — announced available by an out-of-band token — and announces
// it to its right neighbor. A final barrier precedes deregistration.
//
// Under a fault plan the ring recovers per step: a rank whose left
// neighbor's region is gone (or never existed) requests each block
// point-to-point, and every rank services its right neighbor's resend
// requests inside every wait — the ring stays deadlock-free because no
// rank ever blocks without polling for NACKs. The final barrier is then a
// pairwise done handshake: only the right neighbor reads a rank's region,
// so its release needs only that one peer.
//
// Tags: tag cookies, tag+1 tokens, tag+2 barrier, tag+4 NACKs, tag+5
// resent blocks, tag+6 done handshake.
//
// Enable with Config.RingAllgather; the default remains the paper's
// Gather+Bcast composition, kept faithful including its IG weakness.

type ringToken struct {
	step int
}

func (c *Component) allgatherRing(r *mpi.Rank, send, recv memsim.View, rcounts, rdispls []int64) {
	tag := r.CollTag()
	p := r.Size()
	me := r.ID()
	left := (me - 1 + p) % p
	right := (me + 1) % p
	faulty := coll.Faulty(r)

	r.LocalCopy(coll.VBlock(recv, rcounts, rdispls, me), send.SubView(0, rcounts[me]))
	ck, ok := coll.TryCreate(r, recv, knem.DirRead)
	if !ok {
		coll.NoteFallback(r, "allgather-ring")
	}
	r.SendOOB(right, tag, c.ck(cookieMsg{cookie: ck, n: recv.Len}))
	msg, _ := r.RecvOOB(left, tag)
	leftCk := c.cookieOf(msg).cookie // zero once the left region is gone

	// service answers one pending resend request from the right neighbor.
	service := func() {
		if m, _, got := r.TryRecvOOB(right, tag+4); got {
			nk := m.(coll.Nack)
			coll.NoteResend(r, "allgather-ring")
			r.Send(right, tag+5, recv.SubView(nk.Off, nk.N))
		}
	}
	// recvOOB blocks for an out-of-band value, servicing NACKs meanwhile
	// under a fault plan.
	recvOOB := func(src, t int) any {
		if !faulty {
			m, _ := r.RecvOOB(src, t)
			return m
		}
		for {
			if m, _, got := r.TryRecvOOB(src, t); got {
				return m
			}
			service()
			r.ProgressOOB()
		}
	}

	// Step 0 needs no token: the left neighbor's own block is in place
	// before its cookie is published.
	for step := 0; step < p-1; step++ {
		if step > 0 {
			if tok := recvOOB(left, tag+1).(ringToken); tok.step != step {
				panic("core: ring allgather token out of order")
			}
		}
		rb := (me - step - 1 + p) % p
		dst := coll.VBlock(recv, rcounts, rdispls, rb)
		if leftCk != 0 && coll.TryCopy(r, dst, leftCk, rdispls[rb], knem.DirRead) != nil {
			leftCk = 0
		}
		if leftCk == 0 {
			q := r.Irecv(left, tag+5, dst)
			r.SendOOB(left, tag+4, coll.Nack{Off: rdispls[rb], N: dst.Len})
			for !r.Testall(q) {
				service()
				r.ProgressOOB()
			}
		}
		// Block (me-step) is in place before the right neighbor is
		// released into step step+1.
		if step < p-2 {
			r.SendOOB(right, tag+1, ringToken{step: step + 1})
		}
	}
	if faulty {
		r.SendOOB(left, tag+6, coll.Ack{})
		recvOOB(right, tag+6)
	} else {
		coll.Dissemination(r, tag+2)
	}
	coll.Destroy(r, ck)
}
