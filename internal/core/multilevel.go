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

// multiLevelRoles derives the tree for the given root from board and
// domain locality.
func (c *Component) multiLevelRoles(root int) []bcastRole {
	m := c.w.Machine()
	nDom := len(m.Domains)
	domLeader := make([]int, nDom)
	for d := 0; d < nDom; d++ {
		domLeader[d] = -1
		if len(c.members[d]) > 0 {
			domLeader[d] = c.members[d][0]
		}
	}
	rootDom := c.domainOf[root]
	domLeader[rootDom] = root

	boardOf := func(d int) int { return m.Domains[d].Board }
	rootBoard := boardOf(rootDom)
	boardLeader := make(map[int]int)
	boardLeader[rootBoard] = root
	for d := 0; d < nDom; d++ {
		if domLeader[d] == -1 {
			continue
		}
		b := boardOf(d)
		if cur, ok := boardLeader[b]; !ok || domLeader[d] < cur {
			if b != rootBoard {
				boardLeader[b] = domLeader[d]
			}
		}
	}

	roles := make([]bcastRole, c.w.Size())
	for i := range roles {
		roles[i].parent = -1
	}
	addChild := func(parent, child int) {
		roles[parent].children = append(roles[parent].children, child)
		roles[child].parent = parent
		roles[child].parentRoot = parent == root
	}
	// Board leaders hang off the root.
	for b, bl := range boardLeader {
		if b != rootBoard {
			addChild(root, bl)
		}
	}
	// Domain leaders hang off their board leader.
	for d := 0; d < nDom; d++ {
		dl := domLeader[d]
		if dl == -1 {
			continue
		}
		bl := boardLeader[boardOf(d)]
		if dl != bl {
			addChild(bl, dl)
		}
	}
	// Leaves hang off their domain leader.
	for d := 0; d < nDom; d++ {
		for _, rank := range c.members[d] {
			if rank != domLeader[d] && rank != root {
				addChild(domLeader[d], rank)
			}
		}
	}
	return roles
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
	roles := c.multiLevelRoles(root)
	role := roles[me]

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
			if len(roles[ch].children) == 0 {
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
