package allocwin

import "testing"

var sink []*int

func TestCount(t *testing.T) {
	if n := Count(func() {}); n != 0 {
		t.Errorf("empty window: %d objects, want 0", n)
	}
	if n := Count(func() {
		for i := 0; i < 5; i++ {
			sink = append(sink[:0:0], new(int))
		}
	}); n != 10 {
		t.Errorf("five appends of a fresh pointer: %d objects, want 10", n)
	}
}
