// Package allocwin counts the heap objects a window of code allocates, for
// the tests that pin the simulator's hot paths at a fixed allocation count.
//
// The count is a runtime.MemStats.Mallocs delta, which is process-wide: it
// also sees what the Go runtime allocates for itself inside the window.
// Measured plainly (ReadMemStats, the window, ReadMemStats) such a delta
// read 5 stray objects about 1 run in 60. A heap profile sampled at rate 1
// around those windows put every stray object in the runtime starting an
// OS thread (startTheWorld → wakep → startm → newm: the thread's m, g and
// profiling stacks) as the first ReadMemStats restarted the world, and
// none in sim or memsim. wakep starts a thread only when there is an idle
// P to hand it, so Count runs the window with GOMAXPROCS(1): the caller's
// P is then the only one, and restarting the world starts no thread. GC
// is off inside the window as well, so a cycle can neither run its
// workers' allocations nor empty a sync.Pool the code under test refills.
package allocwin

import (
	"runtime"
	"runtime/debug"
)

// Count runs fn and returns the number of heap objects allocated while it
// ran.
func Count(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
