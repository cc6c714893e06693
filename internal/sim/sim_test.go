package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Cancel(id) // cancelling twice is a no-op
}

func TestRunUntilAdvancesTime(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(10, func() { count++ })
	e.Schedule(100, func() { count++ })
	e.RunUntil(50)
	if count != 1 {
		t.Fatalf("count = %d after RunUntil(50)", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	e.RunFor(Duration(100))
	if count != 2 || e.Now() != 150 {
		t.Fatalf("count = %d, Now = %v", count, e.Now())
	}
}

func TestSchedulingInThePastRunsNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(100, func() {
		e.Schedule(10, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event ran at %v, want 100", at)
	}
}

func TestAfterAndRecursiveScheduling(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			e.After(10*Millisecond, tick)
		}
	}
	e.After(10*Millisecond, tick)
	e.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d", ticks)
	}
	if e.Now() != Time(50*Millisecond) {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (stopped)", count)
	}
	// Run can resume.
	e.Run()
	if count != 10 {
		t.Fatalf("count after resume = %d", count)
	}
}

func TestInject(t *testing.T) {
	e := NewEngine()
	done := make(chan struct{})
	go func() {
		e.Inject(func() {})
		close(done)
	}()
	<-done
	hit := false
	e.Inject(func() { hit = true })
	e.Step()
	if !hit {
		t.Fatal("injected callback not drained by Step")
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1_500_000).String(); got != "1.500000s" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickEventsFireInTimeOrder(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i-1] > fired[i] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroEngine(t *testing.T) {
	var e Engine
	var order []int
	e.After(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Cancel(e.After(3, func() { order = append(order, -1) }))
	e.Cancel(0) // the zero id names no event
	if !e.Step() || e.Now() != 1 {
		t.Fatalf("Step: Now = %v, order %v", e.Now(), order)
	}
	e.RunUntil(4)
	e.Schedule(20, func() { order = append(order, 3) })
	e.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) || e.Now() != 20 || e.Pending() != 0 {
		t.Fatalf("order %v, Now %v, Pending %d", order, e.Now(), e.Pending())
	}
}

func TestCancelStaleIDIsNoOp(t *testing.T) {
	e := NewEngine()
	old := e.Schedule(1, func() {})
	e.Run()
	e.Cancel(old) // fired: no-op
	fired := false
	reused := e.Schedule(2, func() { fired = true })
	if reused>>32 != old>>32 {
		t.Fatalf("new event took slot %d, want the fired event's slot %d", reused>>32, old>>32)
	}
	e.Cancel(old) // the same node, an earlier use: still a no-op
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale id cancelled the event that reused its node")
	}
}

func TestCancelKeepsPendingExact(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	e.Cancel(a)
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("Pending after double cancel = %d, want 1", e.Pending())
	}
	var self EventID
	self = e.Schedule(15, func() {
		e.Cancel(self)
		if e.Pending() != 1 {
			t.Errorf("Pending inside own callback after self-cancel = %d, want 1", e.Pending())
		}
	})
	e.Run()
	if e.Pending() != 0 || e.Now() != 20 {
		t.Fatalf("Pending = %d, Now = %v", e.Pending(), e.Now())
	}
}

// TestQuickFiringOrderMatchesReference runs random scripts of Schedule
// (with same-instant ties and times in the past), Cancel of live, fired
// and cancelled ids, and single Steps against a sorted-slice model of
// the engine, and requires the same firing order, clock and Pending.
func TestQuickFiringOrderMatchesReference(t *testing.T) {
	type ref struct {
		at  Time
		seq int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ids []EventID
		var model []ref // live events, kept sorted by (at, seq)
		var got, want []int
		var now Time
		step := func() {
			e.Step()
			if len(model) > 0 {
				now = model[0].at
				want = append(want, model[0].seq)
				model = model[1:]
			}
		}
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				seq := len(ids)
				at := now + Time(rng.Intn(6)) - 1 // ties and past times
				ids = append(ids, e.Schedule(at, func() { got = append(got, seq) }))
				if at < now {
					at = now
				}
				i := sort.Search(len(model), func(i int) bool { return model[i].at > at })
				model = append(model[:i], append([]ref{{at, seq}}, model[i:]...)...)
			case r < 8 && len(ids) > 0:
				k := rng.Intn(len(ids))
				e.Cancel(ids[k])
				for i, m := range model {
					if m.seq == k {
						model = append(model[:i], model[i+1:]...)
						break
					}
				}
			default:
				step()
			}
			if e.Pending() != len(model) || e.Now() != now {
				return false
			}
		}
		for len(model) > 0 {
			step()
		}
		e.Run()
		return reflect.DeepEqual(got, want) && e.Now() == now && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
