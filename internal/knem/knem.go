// Package knem simulates the KNEM Linux kernel module (>= 0.7) that the
// paper's collective component drives directly: single-copy transfers
// between process address spaces, performed in kernel space by the calling
// core (or offloaded to an I/OAT DMA engine).
//
// The simulated API mirrors the real module's region model:
//
//   - Create declares a persistent memory region (possibly vectorial) and
//     returns a cookie; the region can then be accessed multiple times by
//     any number of peers until Destroy — the paper's fix for redundant
//     per-peer registrations (§III-B).
//
//   - A region carries direction permissions: DirRead lets peers read it
//     (receiver-reading: Broadcast, Scatter, Alltoall), DirWrite lets
//     peers write it (sender-writing: Gather). Direction control is the
//     second KNEM extension the paper introduces.
//
//   - Copy moves data between a local buffer and any sub-range of a remote
//     region (granularity control), so several peers can concurrently
//     stream different chunks of the same region.
//
// Every call that would be an ioctl charges the machine's kernel-trap
// latency — the ~100 ns overhead that makes KNEM unattractive below 16 KB
// (§V-A).
//
// Security model (§III): cookies act like System V IPC identifiers. A
// stale, forged, or destroyed cookie yields ErrInvalidCookie; an access
// not permitted by the region's direction yields ErrDirection; a range
// beyond the region yields ErrRange.
package knem

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Direction is a permission bitmask on regions and the access mode of a
// copy.
type Direction int

const (
	// DirRead permits peers to read the region.
	DirRead Direction = 1 << iota
	// DirWrite permits peers to write the region.
	DirWrite
)

// Cookie identifies a declared region.
type Cookie uint64

// Errors returned by the module, mirroring the real driver's EINVAL/EPERM
// surface.
var (
	ErrInvalidCookie = errors.New("knem: invalid cookie")
	ErrDirection     = errors.New("knem: direction not permitted by region")
	ErrRange         = errors.New("knem: copy range exceeds region")
	ErrNoDMA         = errors.New("knem: no DMA engine on this machine")
	// ErrNoMem is the simulated ENOMEM from get_user_pages: the
	// fault plan's pinned-page budget is exhausted (or an injected hard
	// registration failure). Not retryable; callers must degrade.
	ErrNoMem = errors.New("knem: cannot pin region (pinned-page budget exhausted)")
	// ErrAgain is a transient, retryable failure injected by a fault plan.
	ErrAgain = errors.New("knem: resource temporarily unavailable")
	// ErrDMA is an injected DMA engine failure; the caller should fall
	// back to a synchronous kernel copy.
	ErrDMA = errors.New("knem: dma engine fault")
)

// Region is a declared memory region.
type Region struct {
	cookie Cookie
	owner  int
	segs   []memsim.View
	dir    Direction
	total  int64
	pages  int64
}

// Len returns the total byte length of the region.
func (r *Region) Len() int64 { return r.total }

// Module is one node's KNEM driver instance.
type Module struct {
	net   *memsim.Net
	stats *trace.Stats
	inj   *fault.Injector

	// Region state: the cookie map, the cookie counter, and the free list
	// of destroyed Regions.
	regions    map[Cookie]*Region
	next       Cookie
	regionPool []*Region

	// viewPool recycles the per-copy view scratch slices used by
	// slice/resolve. View slices are per-call (taken on entry, returned on
	// exit) because Copy parks mid-call and concurrent copies interleave; a
	// single shared scratch would be clobbered.
	viewPool [][]memsim.View
}

// SetInjector attaches a fault injector; nil (the default) disables
// injection and leaves every path identical to the fault-free module.
func (m *Module) SetInjector(in *fault.Injector) { m.inj = in }

// Injector returns the attached fault injector, or nil.
func (m *Module) Injector() *fault.Injector { return m.inj }

// New attaches a module to a memory system. Modules are carved from the
// engine's arena: a warmed shard reuses the previous module slot with its
// region and view free lists intact, so re-attaching for a repeat cell
// allocates nothing.
func New(net *memsim.Net) *Module {
	m := sim.SlabFor[Module](net.Engine().Arena()).Get()
	m.net, m.stats = net, net.Stats()
	m.inj = nil
	m.next = 0
	if m.regions == nil {
		m.regions = make(map[Cookie]*Region)
	} else if len(m.regions) > 0 {
		// Regions left live by the previous run (leaked cookies) feed the
		// free list; recycle order is map-random but Regions are
		// indistinguishable once zeroed, so determinism is unaffected.
		for c, r := range m.regions {
			delete(m.regions, c)
			m.freeRegion(r)
		}
	}
	return m
}

// newRegion takes a Region from the pool (segs capacity preserved) or
// allocates one.
func (m *Module) newRegion() *Region {
	if k := len(m.regionPool); k > 0 {
		r := m.regionPool[k-1]
		m.regionPool[k-1] = nil
		m.regionPool = m.regionPool[:k-1]
		return r
	}
	return &Region{}
}

// freeRegion recycles a region no longer reachable from the cookie table.
func (m *Module) freeRegion(r *Region) {
	segs := r.segs[:0]
	for i := range r.segs {
		r.segs[i] = memsim.View{}
	}
	*r = Region{segs: segs}
	m.regionPool = append(m.regionPool, r)
}

// getViews takes a scratch view slice from the pool; putViews returns it.
func (m *Module) getViews() []memsim.View {
	if k := len(m.viewPool); k > 0 {
		vs := m.viewPool[k-1]
		m.viewPool[k-1] = nil
		m.viewPool = m.viewPool[:k-1]
		return vs[:0]
	}
	return nil
}

func (m *Module) putViews(vs []memsim.View) {
	for i := range vs {
		vs[i] = memsim.View{}
	}
	m.viewPool = append(m.viewPool, vs[:0])
}

// Net returns the underlying memory simulator.
func (m *Module) Net() *memsim.Net { return m.net }

// ActiveRegions returns the number of live regions (leak checks in tests).
func (m *Module) ActiveRegions() int {
	return len(m.regions)
}

func (m *Module) trap(p *sim.Proc) {
	m.stats.KernelTraps++
	p.Wait(m.net.Machine().Spec.KernelTrap)
}

// Create declares the (possibly vectorial) views as one region owned by
// rank owner with the given direction permissions, returning its cookie.
// Beyond the trap, it charges page pinning proportional to the region size
// (get_user_pages) — the cost that makes repeated registration of the same
// buffer wasteful (§III-A).
func (m *Module) Create(p *sim.Proc, owner int, views []memsim.View, dir Direction) (Cookie, error) {
	m.trap(p)
	if len(views) == 0 {
		return 0, fmt.Errorf("knem: empty region")
	}
	if dir&(DirRead|DirWrite) == 0 {
		return 0, fmt.Errorf("knem: region with no direction permission")
	}
	var total int64
	for _, v := range views {
		total += v.Len
	}
	pages := (total + 4095) / 4096
	if m.inj != nil {
		// get_user_pages fails before any pinning cost accrues.
		switch m.inj.Create(pages) {
		case fault.NoMem:
			return 0, ErrNoMem
		case fault.Transient:
			return 0, ErrAgain
		}
	}
	p.Wait(float64(pages) * m.net.Machine().Spec.PinPerPage)
	m.next++
	r := m.newRegion()
	r.cookie, r.owner, r.dir, r.total, r.pages = m.next, owner, dir, total, pages
	r.segs = append(r.segs, views...)
	m.regions[r.cookie] = r
	m.stats.Registrations++
	return r.cookie, nil
}

// CreateView is Create for the common single-view region, avoiding the
// caller-side slice literal.
func (m *Module) CreateView(p *sim.Proc, owner int, v memsim.View, dir Direction) (Cookie, error) {
	vs := append(m.getViews(), v)
	c, err := m.Create(p, owner, vs, dir)
	m.putViews(vs)
	return c, err
}

// Destroy deregisters a region.
func (m *Module) Destroy(p *sim.Proc, c Cookie) error {
	m.trap(p)
	r, ok := m.regions[c]
	if !ok {
		return ErrInvalidCookie
	}
	delete(m.regions, c)
	if m.inj != nil {
		m.inj.Release(r.pages)
	}
	m.freeRegion(r)
	return nil
}

// invalidate tears a region down behind its users' backs (injected cookie
// invalidation); the next access observes ErrInvalidCookie.
func (m *Module) invalidate(c Cookie) {
	r, ok := m.regions[c]
	if !ok {
		return
	}
	delete(m.regions, c)
	m.inj.Release(r.pages)
	m.freeRegion(r)
	m.stats.Invalidations++
}

// slice resolves [off, off+length) of the region's logical extent into
// concrete views across its segments, appending to out (typically a pooled
// scratch slice owned by the caller).
func (r *Region) slice(off, length int64, out []memsim.View) ([]memsim.View, error) {
	// Compare without computing off+length: the sum can overflow int64 for
	// adversarial offsets and would let a huge off slip past the check.
	if off < 0 || length < 0 || off > r.total || length > r.total-off {
		return nil, ErrRange
	}
	pos := int64(0)
	for _, s := range r.segs {
		if length == 0 {
			break
		}
		segEnd := pos + s.Len
		if off < segEnd {
			start := off - pos
			n := segEnd - off
			if n > length {
				n = length
			}
			out = append(out, s.SubView(start, n))
			off += n
			length -= n
		}
		pos = segEnd
	}
	return out, nil
}

// pairChunks walks two iovec lists in lockstep, yielding aligned pieces.
func pairChunks(a, b []memsim.View, fn func(av, bv memsim.View)) {
	ai, bi := 0, 0
	var aOff, bOff int64
	for ai < len(a) && bi < len(b) {
		av, bv := a[ai], b[bi]
		n := av.Len - aOff
		if r := bv.Len - bOff; r < n {
			n = r
		}
		fn(av.SubView(aOff, n), bv.SubView(bOff, n))
		aOff += n
		bOff += n
		if aOff == av.Len {
			ai++
			aOff = 0
		}
		if bOff == bv.Len {
			bi++
			bOff = 0
		}
	}
}

// Copy performs an inline (synchronous) single-copy transfer between local
// views and the remote region identified by cookie, executed by core —
// the caller's core in kernel mode. dir selects the access: DirRead reads
// [remoteOff, remoteOff+len(local)) of the region into local; DirWrite
// writes local into that range. The region must permit the access.
func (m *Module) Copy(p *sim.Proc, core *topology.Core, local []memsim.View, c Cookie, remoteOff int64, dir Direction) error {
	m.trap(p)
	p.Wait(m.net.Machine().Spec.CopySetup)
	if m.inj != nil {
		switch m.inj.Copy() {
		case fault.Transient:
			return ErrAgain
		case fault.Invalidated:
			m.invalidate(c)
			return ErrInvalidCookie
		}
	}
	remote, n, err := m.resolve(local, c, remoteOff, dir, m.getViews())
	if err != nil {
		return err
	}
	_ = n
	if dir == DirRead {
		pairChunks(local, remote, func(lv, rv memsim.View) {
			m.net.Copy(p, core, lv, rv)
		})
	} else {
		pairChunks(remote, local, func(rv, lv memsim.View) {
			m.net.Copy(p, core, rv, lv)
		})
	}
	m.putViews(remote)
	return nil
}

// CopyView is Copy for the common single local view, avoiding the
// caller-side slice literal.
func (m *Module) CopyView(p *sim.Proc, core *topology.Core, v memsim.View, c Cookie, remoteOff int64, dir Direction) error {
	vs := append(m.getViews(), v)
	err := m.Copy(p, core, vs, c, remoteOff, dir)
	m.putViews(vs)
	return err
}

// Op is an in-flight asynchronous copy.
type Op struct {
	pendings []*memsim.Pending
}

// Wait blocks until the operation completes.
func (o *Op) Wait(p *sim.Proc) {
	for _, pe := range o.pendings {
		pe.Wait(p)
	}
}

// Done reports completion without blocking (the status-polling model of
// KNEM's asynchronous interface).
func (o *Op) Done() bool {
	for _, pe := range o.pendings {
		if !pe.Done() {
			return false
		}
	}
	return true
}

// CopyDMA starts an asynchronous copy offloaded to the domain DMA engine
// of core (Intel I/OAT offload, §III). The calling core is free while the
// transfer progresses. Returns ErrNoDMA on machines without engines.
func (m *Module) CopyDMA(p *sim.Proc, core *topology.Core, local []memsim.View, c Cookie, remoteOff int64, dir Direction) (*Op, error) {
	m.trap(p)
	p.Wait(m.net.Machine().Spec.CopySetup)
	if m.net.Machine().DMA[core.Domain.ID] == nil {
		return nil, ErrNoDMA
	}
	if m.inj != nil {
		stall, failed := m.inj.DMA()
		if stall > 0 {
			p.Wait(stall)
		}
		if failed {
			return nil, ErrDMA
		}
	}
	remote, _, err := m.resolve(local, c, remoteOff, dir, m.getViews())
	if err != nil {
		return nil, err
	}
	op := &Op{}
	if dir == DirRead {
		pairChunks(local, remote, func(lv, rv memsim.View) {
			op.pendings = append(op.pendings, m.net.CopyDMA(core, lv, rv))
		})
	} else {
		pairChunks(remote, local, func(rv, lv memsim.View) {
			op.pendings = append(op.pendings, m.net.CopyDMA(core, rv, lv))
		})
	}
	m.putViews(remote)
	return op, nil
}

// resolve validates a copy request and returns the remote views, appended
// to buf. On error, buf is returned to the pool here; on success, the
// caller owns the returned slice and must putViews it when done.
func (m *Module) resolve(local []memsim.View, c Cookie, remoteOff int64, dir Direction, buf []memsim.View) ([]memsim.View, int64, error) {
	var err error
	switch {
	case dir != DirRead && dir != DirWrite:
		err = fmt.Errorf("knem: copy must be exactly DirRead or DirWrite")
	default:
		r, ok := m.regions[c]
		switch {
		case !ok:
			err = ErrInvalidCookie
		case r.dir&dir == 0:
			err = ErrDirection
		default:
			var n int64
			for _, v := range local {
				n += v.Len
			}
			var remote []memsim.View
			remote, err = r.slice(remoteOff, n, buf)
			if err == nil {
				return remote, n, nil
			}
		}
	}
	m.putViews(buf)
	return nil, 0, err
}
