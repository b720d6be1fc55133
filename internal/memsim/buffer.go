// Package memsim simulates the memory system of a multi-socket machine at
// flow level: concurrent copies contend for link bandwidth under max-min
// fair sharing, last-level caches short-circuit reads of recently touched
// regions, and every transfer is executed by a specific core (or DMA
// engine) whose own copy bandwidth bounds it.
//
// This is the substrate substituting for the paper's physical testbed. The
// three effects the paper's collectives exploit all emerge from it:
//
//   - a single core cannot saturate a memory bus, so spreading copies over
//     the receiving cores (KNEM direction control) raises throughput;
//   - copy-in/copy-out doubles bus traffic and evicts useful cache lines;
//   - topology-oblivious schedules push traffic across slow inter-socket
//     and inter-board links that locality-aware schedules avoid.
//
// Buffers optionally carry real bytes so the full MPI stack above can be
// validated end-to-end for correctness, or can be "phantom" (metadata only)
// for large benchmark sweeps.
package memsim

import (
	"fmt"

	"repro/internal/topology"
)

// Buffer is a contiguous allocation homed on a memory domain. Buffers are
// identified by ID for cache tracking; Views share the ID of their parent.
type Buffer struct {
	ID     int64
	Domain *topology.MemDomain
	Size   int64
	// Data backs the buffer with real bytes when allocated with data;
	// nil for phantom buffers used in timing-only experiments.
	Data []byte
}

// View selects [Off, Off+Len) of a buffer.
type View struct {
	Buf *Buffer
	Off int64
	Len int64
}

// Alloc creates a buffer of size bytes homed on domain d. withData selects
// a real backing array. Buffers live in the engine's arena and are valid
// until the engine's next Reset; a warmed shard hands out recycled slots
// (with their backing arrays, zeroed) instead of heap allocations.
func (n *Net) Alloc(d *topology.MemDomain, size int64, withData bool) *Buffer {
	if size < 0 {
		panic("memsim: negative allocation")
	}
	n.nextBuf++
	b := n.bufSlab.Get()
	b.ID, b.Domain, b.Size = n.nextBuf, d, size
	if !withData {
		b.Data = nil
	} else if int64(cap(b.Data)) >= size {
		b.Data = b.Data[:size]
		clear(b.Data)
	} else {
		b.Data = make([]byte, size)
	}
	return b
}

// Whole returns a view of the entire buffer.
func (b *Buffer) Whole() View { return View{Buf: b, Off: 0, Len: b.Size} }

// View selects a sub-range; it panics if the range is out of bounds.
func (b *Buffer) View(off, length int64) View {
	if off < 0 || length < 0 || off+length > b.Size {
		panic(fmt.Sprintf("memsim: view [%d,%d) out of buffer size %d", off, off+length, b.Size))
	}
	return View{Buf: b, Off: off, Len: length}
}

// Bytes returns the backing bytes of the view (nil for phantom buffers).
func (v View) Bytes() []byte {
	if v.Buf.Data == nil {
		return nil
	}
	return v.Buf.Data[v.Off : v.Off+v.Len]
}

// SubView narrows the view; offsets are relative to the view.
func (v View) SubView(off, length int64) View {
	if off < 0 || length < 0 || off+length > v.Len {
		panic(fmt.Sprintf("memsim: subview [%d,%d) out of view len %d", off, off+length, v.Len))
	}
	return View{Buf: v.Buf, Off: v.Off + off, Len: length}
}
