package main

import (
	"testing"
	"time"
)

// fakeClock advances one millisecond per reading, so every span has a
// known, nonzero duration.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSelfPlusChildrenEqualsParent(t *testing.T) {
	tr := newTracerClock(fakeClock())
	for p := 0; p < 2; p++ {
		endRoot := tr.Root("flow")
		tr.Begin("placer")()
		endPolish := tr.Begin("polish")
		tr.Begin("sta")()
		tr.Begin("detailed")()
		endPolish()
		tr.Begin("route")()
		endRoot()
	}
	spans := tr.Spans()
	self := selfTimes(spans)
	children := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur()
		}
	}
	for _, s := range spans {
		if s.Dur() <= 0 {
			t.Fatalf("span %d %s has duration %v", s.ID, s.Name, s.Dur())
		}
		if self[s.ID] < 0 {
			t.Fatalf("span %d %s has negative self time %v", s.ID, s.Name, self[s.ID])
		}
		if got := self[s.ID] + children[s.ID]; got != s.Dur() {
			t.Fatalf("span %d %s: self %v + children %v = %v, want %v",
				s.ID, s.Name, self[s.ID], children[s.ID], got, s.Dur())
		}
	}

	// Two placements, two trace ids, one root each.
	roots := map[int]int{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Trace]++
		}
	}
	if len(roots) != 2 || roots[1] != 1 || roots[2] != 1 {
		t.Fatalf("roots per trace = %v, want one root in each of traces 1 and 2", roots)
	}

	// Self times of every span sum to the roots' durations.
	var sumSelf, sumRoots time.Duration
	for _, s := range spans {
		sumSelf += self[s.ID]
		if s.Parent == 0 {
			sumRoots += s.Dur()
		}
	}
	if sumSelf != sumRoots {
		t.Fatalf("sum of self times %v != sum of root durations %v", sumSelf, sumRoots)
	}
	tot := totalsByName(spans)
	if tot["polish"].Calls != 2 || tot["polish"].Total != tot["polish"].Self+tot["sta"].Total+tot["detailed"].Total {
		t.Fatalf("polish totals %+v inconsistent with its children sta %+v, detailed %+v",
			tot["polish"], tot["sta"], tot["detailed"])
	}
}

func TestSpanClosedOutOfOrderPanics(t *testing.T) {
	tr := newTracerClock(fakeClock())
	endA := tr.Begin("a")
	tr.Begin("b")
	defer func() {
		if recover() == nil {
			t.Fatal("closing an outer span before its child did not panic")
		}
	}()
	endA()
}
