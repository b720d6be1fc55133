package memsim

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Intra-cell partitioning splits one compiled cluster's memory system into
// several Nets that simulate disjoint link slices on separate engines: one
// Net per node (guarded to that node's link range) plus one fabric Net
// (full range, for the leader flows that cross the switch). All partitions
// share the immutable topology state of the parent Net — machine, interned
// routes, coherence-island tables — and, crucially, the groupCache objects,
// so cache residency built by a node engine is visible to the fabric engine
// once the conservative window barrier orders them.
//
// Correctness rests on two pillars:
//
//  1. The max-min solver decomposes exactly over link-disjoint flow sets:
//     a link's fixed-load and weight accumulators only ever sum the flows
//     crossing that link, so solving each partition's flows against its own
//     link slice yields bitwise the rates of the joint solve — provided no
//     flow ever spans two partitions' slices. Node partitions are
//     hard-guarded (startCopy panics on a stray link), and the collective
//     envelope keeps fabric flows off a node's links while that node has
//     flows of its own.
//  2. Cache state crosses engines only through window barriers. The
//     post-run audit (AuditPartitions) proves pillar 1's temporal side: it
//     replays the recorded flow intervals and verifies every fabric flow
//     that touched a node's link slice is at least one lookahead away from
//     every flow of that node — i.e. they sat in different windows.

// FlowSpan is the simulated-time interval one flow occupied, recorded at
// completion for the partition soundness audit.
type FlowSpan struct {
	Start, End sim.Time
}

// NewPartition creates a Net that simulates a slice of the parent's
// machine on its own engine. [linkLo, linkHi) is the partition's link
// slice; a partition narrower than the whole machine is guarded — any flow
// crossing a link outside the slice panics, and every flow's interval is
// recorded for AuditPartitions. bufBase offsets buffer IDs so partitions
// allocate from disjoint ID spaces (IDs are only cache-map keys; their
// values never enter timing).
//
// Call after SetClusterIslands on the parent: the island tables are shared
// by slice header, so partitions see exactly the islands in force at
// creation. stats may be nil.
func (n *Net) NewPartition(eng *sim.Engine, stats *trace.Stats, linkLo, linkHi int, bufBase int64) *Net {
	if stats == nil {
		stats = &trace.Stats{}
	}
	nl := len(n.mach.Links)
	if linkLo < 0 || linkHi > nl || linkLo >= linkHi {
		panic(fmt.Sprintf("memsim: partition link range [%d,%d) out of [0,%d)", linkLo, linkHi, nl))
	}
	p := &Net{
		eng:        eng,
		mach:       n.mach,
		stats:      stats,
		caches:     n.caches,
		bwScale:    n.bwScale,
		routeDom:   n.routeDom,
		routeGroup: n.routeGroup,
		linkNames:  n.linkNames,
		islGroupLo: n.islGroupLo,
		islGroupHi: n.islGroupHi,
		islDomLo:   n.islDomLo,
		islDomHi:   n.islDomHi,
		linkLo:     linkLo,
		linkHi:     linkHi,
		linkGuard:  linkLo > 0 || linkHi < nl,
		bufBase:    bufBase,
	}
	p.bufSlab = sim.SlabFor[Buffer](eng.Arena())
	stats.SetLinkNames(p.linkNames)
	p.allocLinkTables(nl)
	p.onCompletionFn = p.onCompletion
	p.repriceFn = p.flushReprice
	p.recordSpans = p.linkGuard
	return p
}

// SetAuditRanges arms a fabric partition's side of the audit: for each
// foreign link range (a node's slice), the partition records the interval
// of every one of its flows that crosses into that range.
func (n *Net) SetAuditRanges(ranges [][2]int32) {
	n.foreignRanges = ranges
	n.foreignSpans = make([][]FlowSpan, len(ranges))
	n.recordSpans = n.recordSpans || len(ranges) > 0
}

// Spans returns the recorded flow intervals of a guarded partition.
func (n *Net) Spans() []FlowSpan { return n.spans }

// ForeignSpans returns the fabric partition's recorded intervals of flows
// that crossed into foreign range i (as passed to SetAuditRanges).
func (n *Net) ForeignSpans(i int) []FlowSpan { return n.foreignSpans[i] }

// recordSpan logs a finished flow's interval: a guarded (node) partition
// records every flow; a fabric partition records the flow once per foreign
// range it crossed into.
func (n *Net) recordSpan(f *flow) {
	if n.linkGuard {
		n.spans = append(n.spans, FlowSpan{Start: f.started, End: n.eng.Now()})
		return
	}
	for ri, r := range n.foreignRanges {
		for _, u := range f.uses {
			if u.idx >= int(r[0]) && u.idx < int(r[1]) {
				n.foreignSpans[ri] = append(n.foreignSpans[ri], FlowSpan{Start: f.started, End: n.eng.Now()})
				break
			}
		}
	}
}

// AuditPartitions verifies, after a windowed run, that the partitioned rate
// solve was exact: every fabric flow that crossed into node i's link slice
// must be separated from every flow of node partition i by at least the
// lookahead. Two flows at least one lookahead apart in simulated time can
// never have shared a window, so the window barrier ordered them and
// neither could have influenced the other's rate — the per-partition
// water-filling then equals the joint one bit for bit. A violation means
// the collective's envelope assumption broke; the caller should discard
// the parallel result and rerun serially.
func AuditPartitions(fabric *Net, nodes []*Net, lookahead float64) error {
	if len(fabric.foreignSpans) != len(nodes) {
		panic("memsim: AuditPartitions node count does not match fabric audit ranges")
	}
	for i, node := range nodes {
		if err := auditPair(fabric.foreignSpans[i], node.spans, lookahead); err != nil {
			return fmt.Errorf("partition audit: node %d: %w", i, err)
		}
	}
	return nil
}

// auditPair checks every (fabric, node) span pair for a gap < lookahead.
// Spans A and B conflict iff A.Start < B.End+L && B.Start < A.End+L. Node
// spans are sorted by start with a running prefix-max of ends, so each
// fabric span costs one binary search instead of a full scan.
func auditPair(fab, node []FlowSpan, lookahead float64) error {
	if len(fab) == 0 || len(node) == 0 {
		return nil
	}
	sort.Slice(node, func(i, j int) bool { return node[i].Start < node[j].Start })
	maxEnd := make([]sim.Time, len(node))
	for i, s := range node {
		maxEnd[i] = s.End
		if i > 0 && maxEnd[i-1] > maxEnd[i] {
			maxEnd[i] = maxEnd[i-1]
		}
	}
	for _, a := range fab {
		// Node spans with Start < a.End + L are the only conflict
		// candidates; among them the one with the largest End decides.
		k := sort.Search(len(node), func(i int) bool { return node[i].Start >= a.End+lookahead })
		if k == 0 {
			continue
		}
		if maxEnd[k-1]+lookahead > a.Start {
			return fmt.Errorf("fabric flow [%.9g, %.9g] within lookahead %g of a node flow",
				a.Start, a.End, lookahead)
		}
	}
	return nil
}
