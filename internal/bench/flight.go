package bench

// Singleflight for measurement cells: when several goroutines — the
// parallel sweep runner's workers, or concurrent server requests — need
// the same cell key at the same moment, exactly one of them simulates and
// the rest wait for its memoized entry. Without this layer the cache only
// deduplicates across time (a cell must finish before the next identical
// one can hit); with it, identical in-flight cells collapse too, so a
// burst of identical batch requests costs one simulation, not one per
// request.
//
// The protocol is deliberately loose on failure: a leader that errors
// (simulation failure, cancelled context) marks the flight failed and the
// waiters retry from the top — re-checking the cache, then electing a new
// leader among themselves. A cancelled waiter abandons the flight without
// affecting it.

// flight is one in-progress computation of a cell key. ok is written by
// the leader before close(done) and read by waiters after <-done, so the
// close is the happens-before edge and no lock is needed on ok.
type flight struct {
	done chan struct{}
	ok   bool
}

// flightJoin returns the runner's in-progress flight for key, creating one
// if none exists; leader reports whether this caller created it (and
// therefore must simulate and complete the flight).
func (r *Runner) flightJoin(key string) (c *flight, leader bool) {
	r.flightMu.Lock()
	defer r.flightMu.Unlock()
	if c, ok := r.flights[key]; ok {
		return c, false
	}
	if r.flights == nil {
		r.flights = map[string]*flight{}
	}
	c = &flight{done: make(chan struct{})}
	r.flights[key] = c
	return c, true
}

// flightDone completes a flight: the leader calls it exactly once, with ok
// true only after the entry has been stored in the memo layer (so woken
// waiters are guaranteed to find it there).
func (r *Runner) flightDone(key string, c *flight, ok bool) {
	r.flightMu.Lock()
	delete(r.flights, key)
	r.flightMu.Unlock()
	c.ok = ok
	close(c.done)
}
