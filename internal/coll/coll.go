// Package coll provides building blocks shared by the collective
// components: block arithmetic for regular layouts, virtual-rank tree
// shapes (binomial, chain, split-binary), a dissemination barrier, and the
// degradation toolkit of the KNEM region protocols (degrade.go). The
// components themselves live in subpackages (basic, tuned, mpich2,
// smcoll, hier) and in internal/core (the paper's KNEM component).
//
// Each KNEM region protocol is written once, with its degradation branches
// inline. When the world carries a fault injector (mpi.Options.Fault),
// TryCreate and TryCopy retry transient failures with the plan's bounded
// backoff and report persistent ones, and the protocol degrades: a failed
// registration falls the operation back to a point-to-point algorithm or
// streams, a failed copy NACKs and is satisfied by a point-to-point resend
// from the region's owner, and every degradation is counted in trace.Stats
// and recorded on the timeline's "faults" lane. Without an injector
// nothing can fail — TryCreate and TryCopy panic on an error, which is
// then a bug — so the degradation branches are dead and a fault-free run
// sends exactly the strict protocol's messages.
//
// Degradation invariants every protocol keeps:
//
//   - A region owner never deregisters while a peer might still access the
//     region: owners collect exactly one response (ACK or NACK) per peer
//     that was handed the cookie.
//   - A peer that loses a region mid-operation never blocks a loop the
//     owner's progress depends on: resend receives are posted before the
//     NACK is sent, and stale notifications keep being consumed.
//   - Peers of an owner that never had a region (registration failed) do
//     not send responses — nobody collects them.
package coll

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/mpi"
)

// Block returns block i of a buffer divided into p equal blocks.
func Block(v memsim.View, i, p int) memsim.View {
	if v.Len%int64(p) != 0 {
		panic(fmt.Sprintf("coll: buffer of %d bytes not divisible into %d blocks", v.Len, p))
	}
	blk := v.Len / int64(p)
	return v.SubView(int64(i)*blk, blk)
}

// VBlock returns the block [displs[i], displs[i]+counts[i]) of a vector
// layout.
func VBlock(v memsim.View, counts, displs []int64, i int) memsim.View {
	return v.SubView(displs[i], counts[i])
}

// Uniform builds counts/displs arrays for p equal blocks of size blk.
func Uniform(p int, blk int64) (counts, displs []int64) {
	counts = make([]int64, p)
	displs = make([]int64, p)
	for i := range counts {
		counts[i] = blk
		displs[i] = int64(i) * blk
	}
	return
}

// Total returns the extent covered by a counts/displs layout (max of
// displ+count).
func Total(counts, displs []int64) int64 {
	var max int64
	for i := range counts {
		if end := displs[i] + counts[i]; end > max {
			max = end
		}
	}
	return max
}

// VRank maps a rank into the virtual numbering where the root is 0.
func VRank(rank, root, p int) int { return (rank - root + p) % p }

// RRank maps a virtual rank back to a real rank.
func RRank(vrank, root, p int) int { return (vrank + root) % p }

// BinomialChildren returns the children of rank in the binomial tree
// rooted at root, in the order a broadcast sends to them (largest subtree
// first), along with the rank's parent (-1 for the root).
func BinomialChildren(rank, root, p int) (parent int, children []int) {
	v := VRank(rank, root, p)
	parent = -1
	// The parent clears the lowest set bit of v.
	if v != 0 {
		lsb := v & -v
		parent = RRank(v^lsb, root, p)
	}
	// Children are v + 2^k for 2^k below the lowest set bit (for the
	// root, below the smallest power of two covering p), while in range.
	low := 1
	for low < p {
		low <<= 1
	}
	if v != 0 {
		low = v & -v
	}
	for m := low >> 1; m > 0; m >>= 1 {
		c := v + m
		if c < p {
			children = append(children, RRank(c, root, p))
		}
	}
	return
}

// ChainNext returns the successor and predecessor of rank in the chain
// (pipeline) rooted at root: root -> root+1 -> ... wrapping around.
func ChainNext(rank, root, p int) (prev, next int) {
	v := VRank(rank, root, p)
	prev, next = -1, -1
	if v > 0 {
		prev = RRank(v-1, root, p)
	}
	if v < p-1 {
		next = RRank(v+1, root, p)
	}
	return
}

// SplitBinaryTree describes Open MPI's split-binary broadcast shape: a
// balanced binary tree over virtual ranks; the message is halved, each
// half pipelined down one subtree, and the halves exchanged between
// opposite leaves at the end. SplitBinaryParent returns parent and
// children in the balanced binary tree rooted at root.
func SplitBinaryParent(rank, root, p int) (parent int, children []int) {
	v := VRank(rank, root, p)
	parent = -1
	if v != 0 {
		parent = RRank((v-1)/2, root, p)
	}
	for _, c := range []int{2*v + 1, 2*v + 2} {
		if c < p {
			children = append(children, RRank(c, root, p))
		}
	}
	return
}

// Dissemination runs a dissemination barrier over the out-of-band channel:
// ceil(log2 P) rounds of token exchanges.
func Dissemination(r mpi.Ranker, tag int) {
	p := r.Size()
	if p == 1 {
		return
	}
	me := r.ID()
	for k := 1; k < p; k <<= 1 {
		r.SendOOB((me+k)%p, tag, k)
		for {
			v, _ := r.RecvOOB((me-k+p)%p, tag)
			if v.(int) == k {
				break
			}
			panic("coll: barrier round mismatch")
		}
	}
}

// Segments iterates [0, total) in chunks of seg, calling fn(off, n).
func Segments(total, seg int64, fn func(off, n int64)) {
	if seg <= 0 || seg > total {
		seg = total
	}
	for off := int64(0); off < total; off += seg {
		n := seg
		if rem := total - off; rem < n {
			n = rem
		}
		fn(off, n)
	}
}

// NumSegments returns how many chunks Segments would produce.
func NumSegments(total, seg int64) int {
	if total == 0 {
		return 0
	}
	if seg <= 0 || seg > total {
		return 1
	}
	return int((total + seg - 1) / seg)
}
