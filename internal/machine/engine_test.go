package machine

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time %g", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.Schedule(1, chain)
		}
	}
	e.Schedule(0, chain)
	end := e.Run()
	if count != 5 || end != 4 {
		t.Fatalf("count %d end %g", count, end)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic scheduling into the past")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestResourceSerialization(t *testing.T) {
	var r Resource
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire: %g-%g", s1, e1)
	}
	// A request at t=5 must queue behind the first.
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second acquire: %g-%g", s2, e2)
	}
	// A request after free time starts immediately.
	s3, _ := r.Acquire(30, 1)
	if s3 != 30 {
		t.Fatalf("third acquire start %g", s3)
	}
	if r.BusySeconds != 21 {
		t.Fatalf("busy %g", r.BusySeconds)
	}
}

// Property: resource reservations never overlap and never start before
// the request time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct{ T, D uint16 }) bool {
		var r Resource
		lastEnd := 0.0
		now := 0.0
		for _, q := range reqs {
			now += float64(q.T % 100)
			dur := float64(q.D%50) + 1
			s, e := r.Acquire(now, dur)
			if s < now || s < lastEnd || e != s+dur {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueDelay(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	if d := r.QueueDelay(4); d != 6 {
		t.Fatalf("delay %g", d)
	}
	if d := r.QueueDelay(12); d != 0 {
		t.Fatalf("delay %g", d)
	}
}
