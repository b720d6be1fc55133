package core

import (
	"repro/internal/coll"
	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
)

// Multi-level pipelined Broadcast — the "dynamic topology mapping" the
// paper leaves to future work (§V-B: "the topology mapping is static for
// now, but will be dynamic in future works"). Instead of the fixed
// two-level NUMA tree, the tree follows the machine's physical hierarchy:
//
//	root -> board leaders -> NUMA-domain leaders -> leaves
//
// On IG this sends one stream per board across the inter-board links and
// relieves the root's memory bus (one board leader plus the on-board
// domain leaders read from it, instead of every domain leader on the
// machine), while every level stays segment-pipelined. On machines with a
// single board the tree degenerates to the paper's two-level shape.
//
// Enable with Config.Mode = ModeMultiLevel.

// bcastRole describes one rank's place in the multi-level tree.
type bcastRole struct {
	parent     int   // -1 for the root
	children   []int // in notification order
	parentRoot bool  // parent is the root (whole-buffer read allowed for leaves)
}

// multiLevelRole derives rank's place in the tree for the given root from
// board and domain locality, without building the rest of the tree. Each
// domain is led by its first member (the root leads its own), each other
// board by its lowest-numbered domain leader; the root's board leader is
// the root. Children are listed in notification order: the other boards'
// leaders in ascending board order (root only), then the domain leaders a
// board leader heads, then the domain's leaves.
func (c *Component) multiLevelRole(root, rank int) bcastRole {
	m := c.w.Machine()
	boardOf := func(d int) int { return m.Domains[d].Board }
	rootDom := c.domainOf[root]
	domLeader := func(d int) int {
		switch {
		case d == rootDom:
			return root
		case len(c.members[d]) == 0:
			return -1
		}
		return c.members[d][0]
	}
	boardLeader := func(b int) int {
		if b == boardOf(rootDom) {
			return root
		}
		bl := -1
		for d := range c.members {
			if dl := domLeader(d); boardOf(d) == b && dl != -1 && (bl == -1 || dl < bl) {
				bl = dl
			}
		}
		return bl
	}

	dom := c.domainOf[rank]
	dl, bl := domLeader(dom), boardLeader(boardOf(dom))
	role := bcastRole{parent: -1}
	switch {
	case rank == root:
	case rank != dl:
		role.parent = dl
	case rank != bl:
		role.parent = bl
	default:
		role.parent = root
	}
	role.parentRoot = role.parent == root

	// Board leaders hang off the root.
	if rank == root {
		lastBoard := 0
		for d := range m.Domains {
			lastBoard = max(lastBoard, boardOf(d))
		}
		for b := 0; b <= lastBoard; b++ {
			if l := boardLeader(b); l != -1 && l != root {
				role.children = append(role.children, l)
			}
		}
	}
	// Domain leaders hang off their board leader.
	if rank == bl {
		for d := range c.members {
			if l := domLeader(d); boardOf(d) == boardOf(dom) && l != -1 && l != rank {
				role.children = append(role.children, l)
			}
		}
	}
	// Leaves hang off their domain leader.
	if rank == dl {
		for _, leaf := range c.members[dom] {
			if leaf != rank {
				role.children = append(role.children, leaf)
			}
		}
	}
	return role
}

const wholeBuffer = -1 // segReady.seg value meaning "read everything"

// bcastMultiLevel runs the generic pipelined relay protocol over the
// multi-level tree, with the degradations of the two-level pipeline:
// whole-operation fallback when the root cannot register (relays propagate
// the verdict down), streaming relays when an interior registration fails,
// and NACK-plus-remainder recovery for lost regions, with stale
// notifications always consumed.
//
// Tags: tag cookies, tag+1 upward responses, tag+3 segment notifications,
// tag+5 parent data (stream or resend); sources disambiguate levels (every
// rank only receives from its own parent and children).
func (c *Component) bcastMultiLevel(r *mpi.Rank, v memsim.View, root int) {
	tag := r.CollTag()
	me := r.ID()
	seg := c.segSize(v.Len)
	role := c.multiLevelRole(root, me)

	if role.parent == -1 && me != root {
		panic("core: multilevel rank outside tree")
	}

	if me == root {
		ck, ok := coll.TryCreate(r, v, knem.DirRead)
		if !ok {
			coll.NoteFallback(r, "bcast-multilevel")
		}
		for _, ch := range role.children {
			r.SendOOB(ch, tag, c.announce(ok, cookieMsg{cookie: ck, n: v.Len}))
		}
		if !ok {
			c.fb.Bcast(r, v, root)
			return
		}
		// The root's data is complete: leaves under it read in one copy,
		// relays under it still pace themselves per segment so their own
		// subtrees overlap with their reads.
		for _, ch := range role.children {
			if len(c.multiLevelRole(root, ch).children) == 0 {
				r.SendOOB(ch, tag+3, c.sg(wholeBuffer))
				continue
			}
			s := 0
			for off := int64(0); off < v.Len; off += seg {
				r.SendOOB(ch, tag+3, c.sg(s))
				s++
			}
		}
		c.finishRoot(r, v, ck, tag+1, tag+5, len(role.children), "bcast-multilevel")
		return
	}

	// Relay or leaf.
	msg, _ := r.RecvOOB(role.parent, tag)
	cm := c.cookieOf(msg)
	if cm.fallback() {
		for _, ch := range role.children {
			r.SendOOB(ch, tag, c.ck(cookieMsg{}))
		}
		c.fb.Bcast(r, v, root)
		return
	}
	if len(role.children) == 0 {
		c.mlLeaf(r, v, role.parent, cm.cookie, tag, seg)
		return
	}

	ownCk, ok := coll.TryCreate(r, v, knem.DirRead)
	if !ok {
		// Without a region the relay streams each segment to its children
		// (zero cookie, nonzero length).
		coll.NoteFallback(r, "bcast-multilevel-relay")
	}
	for _, ch := range role.children {
		r.SendOOB(ch, tag, c.ck(cookieMsg{cookie: ownCk, n: v.Len}))
	}
	parentCk := cm.cookie // zero if the parent streams, or once its region is lost
	streamed := parentCk == 0
	var stream []*mpi.Request
	s := 0
	for off := int64(0); off < v.Len; off += seg {
		n := min(seg, v.Len-off)
		if streamed {
			r.Recv(role.parent, tag+5, v.SubView(off, n))
		} else {
			ready, _ := r.RecvOOB(role.parent, tag+3)
			if c.segOf(ready) != s {
				panic("core: multilevel segment out of order")
			}
			parentCk = coll.ReadSegment(r, v, off, n, parentCk, role.parent, tag+1, tag+5)
		}
		for _, ch := range role.children {
			if ok {
				r.SendOOB(ch, tag+3, c.sg(s))
			} else {
				stream = append(stream, r.Isend(ch, tag+5, v.SubView(off, n)))
			}
		}
		s++
	}
	if !ok {
		r.Wait(stream...)
	}
	if parentCk != 0 {
		r.SendOOB(role.parent, tag+1, coll.Ack{})
	}
	if ok {
		c.finishRoot(r, v, ownCk, tag+1, tag+5, len(role.children), "bcast-multilevel-relay")
	}
}

// mlLeaf is the multi-level leaf: a whole-buffer read under the root, a
// per-segment read otherwise, or the segments a regionless parent streams
// (ck zero; such a parent collects no response).
func (c *Component) mlLeaf(r *mpi.Rank, v memsim.View, parent int, ck knem.Cookie, tag int, seg int64) {
	if ck == 0 {
		for off := int64(0); off < v.Len; off += seg {
			r.Recv(parent, tag+5, v.SubView(off, min(seg, v.Len-off)))
		}
		return
	}
	first, _ := r.RecvOOB(parent, tag+3)
	if c.segOf(first) == wholeBuffer {
		coll.Access(r, v, ck, 0, knem.DirRead, parent, tag+1, tag+5)
		return
	}
	s := 0
	for off := int64(0); off < v.Len; off += seg {
		if s > 0 {
			ready, _ := r.RecvOOB(parent, tag+3)
			if c.segOf(ready) != s {
				panic("core: multilevel segment out of order")
			}
		}
		ck = coll.ReadSegment(r, v, off, min(seg, v.Len-off), ck, parent, tag+1, tag+5)
		s++
	}
	if ck != 0 {
		r.SendOOB(parent, tag+1, coll.Ack{})
	}
}
