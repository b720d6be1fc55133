// Package trace collects counters from the simulated memory system and
// communication layers: copies, bytes per link, cache hits, kernel traps,
// KNEM region registrations. Tests use them to assert structural properties
// (e.g. a KNEM broadcast performs exactly one registration and N-1 copies);
// the benchmark harness reports them alongside timings.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Stats accumulates counters. The zero value is ready to use. Stats is not
// safe for concurrent use; the simulator is single-threaded in effect, so
// no locking is needed.
type Stats struct {
	Copies        int64 // memory transfers started
	BytesCopied   int64 // payload bytes moved
	CacheHits     int64 // transfers whose read side was served by a cache
	CacheMisses   int64 // transfers whose read side went to DRAM
	KernelTraps   int64 // simulated ioctl/syscall entries
	Registrations int64 // KNEM region creations
	CtrlMsgs      int64 // out-of-band control messages
	LinkBytes     map[string]int64

	// Dense per-link accumulator, used by the memory simulator's hot path
	// instead of the string-keyed map (SetLinkNames/AddLinkBytesIdx).
	// FlushLinks folds it into LinkBytes; accessors that expose the map
	// call it first, so readers never see a stale view.
	links     []int64
	linkNames []string

	// Fault-injection counters (zero unless a fault.Plan is active).
	FaultsInjected int64 // discrete faults injected by the plan
	CreateFaults   int64 // failed region registrations (ENOMEM/EAGAIN)
	CopyFaults     int64 // failed copies (EAGAIN/invalidated cookie)
	DMAFaults      int64 // failed or stalled DMA submissions
	Invalidations  int64 // live regions destroyed by cookie invalidation
	Retries        int64 // transient faults retried by the component
	Fallbacks      int64 // operations degraded to a non-KNEM delivery path
	Resends        int64 // blocks re-delivered over p2p after a fault
}

// AddLinkBytes accounts payload bytes crossing the named link.
func (s *Stats) AddLinkBytes(name string, n int64) {
	if s.LinkBytes == nil {
		s.LinkBytes = make(map[string]int64)
	}
	s.LinkBytes[name] += n
}

// SetLinkNames installs the dense accumulator for links 0..len(names)-1.
// The simulator calls it once per run so per-copy accounting is a slice
// add, not a map write.
func (s *Stats) SetLinkNames(names []string) {
	s.linkNames = names
	s.links = make([]int64, len(names))
}

// AddLinkBytesIdx accounts payload bytes on the link with dense index i.
// SetLinkNames must have been called.
func (s *Stats) AddLinkBytesIdx(i int, n int64) { s.links[i] += n }

// FlushLinks folds the dense accumulator into the LinkBytes map. Safe to
// call at any time; totals are unaffected by when or how often it runs.
func (s *Stats) FlushLinks() {
	for i, v := range s.links {
		if v != 0 {
			s.AddLinkBytes(s.linkNames[i], v)
			s.links[i] = 0
		}
	}
}

// Snapshot flushes the dense accumulator and returns a value copy without
// it, so snapshots taken live compare equal (reflect.DeepEqual, JSON) to
// ones round-tripped through serialization.
func (s *Stats) Snapshot() Stats {
	s.FlushLinks()
	out := *s
	out.links, out.linkNames = nil, nil
	return out
}

// Merge folds other's counters into s. Every field is an additive total
// (there are no gauges), so merged sinks hold exactly the counters one
// shared sink would have accumulated. Both sinks' dense link
// accumulators are flushed first; other is left flushed but otherwise
// unchanged.
func (s *Stats) Merge(other *Stats) {
	s.FlushLinks()
	other.FlushLinks()
	s.Copies += other.Copies
	s.BytesCopied += other.BytesCopied
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.KernelTraps += other.KernelTraps
	s.Registrations += other.Registrations
	s.CtrlMsgs += other.CtrlMsgs
	s.FaultsInjected += other.FaultsInjected
	s.CreateFaults += other.CreateFaults
	s.CopyFaults += other.CopyFaults
	s.DMAFaults += other.DMAFaults
	s.Invalidations += other.Invalidations
	s.Retries += other.Retries
	s.Fallbacks += other.Fallbacks
	s.Resends += other.Resends
	for name, n := range other.LinkBytes {
		s.AddLinkBytes(name, n)
	}
}

// Reset zeroes every counter. The dense link accumulator keeps its shape
// (names and capacity) so resetting mid-run costs nothing on the hot path.
func (s *Stats) Reset() {
	links, names := s.links, s.linkNames
	*s = Stats{}
	for i := range links {
		links[i] = 0
	}
	s.links, s.linkNames = links, names
}

// String renders the counters compactly, links sorted by name.
func (s *Stats) String() string {
	s.FlushLinks()
	var b strings.Builder
	fmt.Fprintf(&b, "copies=%d bytes=%d cacheHits=%d cacheMisses=%d traps=%d regs=%d ctrl=%d",
		s.Copies, s.BytesCopied, s.CacheHits, s.CacheMisses, s.KernelTraps, s.Registrations, s.CtrlMsgs)
	if s.FaultsInjected != 0 || s.Retries != 0 || s.Fallbacks != 0 || s.Resends != 0 {
		fmt.Fprintf(&b, " faults=%d createFaults=%d copyFaults=%d dmaFaults=%d invalidations=%d retries=%d fallbacks=%d resends=%d",
			s.FaultsInjected, s.CreateFaults, s.CopyFaults, s.DMAFaults, s.Invalidations, s.Retries, s.Fallbacks, s.Resends)
	}
	if len(s.LinkBytes) > 0 {
		names := make([]string, 0, len(s.LinkBytes))
		for n := range s.LinkBytes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, s.LinkBytes[n])
		}
	}
	return b.String()
}
