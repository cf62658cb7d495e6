package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// testClock returns a one-shard world and the single entity clock a test
// schedules on.
func testClock(seed int64) (*World, *Clock) {
	w := NewWorld(seed, 1)
	return w, w.HostClock(0, "test")
}

func TestScheduleOrdering(t *testing.T) {
	w, s := testClock(1)
	var got []int
	s.Schedule(30*Millisecond, "c", func() { got = append(got, 3) })
	s.Schedule(10*Millisecond, "a", func() { got = append(got, 1) })
	s.Schedule(20*Millisecond, "b", func() { got = append(got, 2) })
	w.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	w, s := testClock(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Second, "e", func() { got = append(got, i) })
	}
	w.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

// TestTiesOrderByEntity pins the total order among equal times: entities
// in build order, then FIFO within each entity.
func TestTiesOrderByEntity(t *testing.T) {
	w := NewWorld(1, 1)
	a := w.HostClock(0, "a")
	b := w.HostClock(0, "b")
	var got []string
	b.Schedule(Second, "b0", func() { got = append(got, "b0") })
	a.Schedule(Second, "a0", func() { got = append(got, "a0") })
	b.Schedule(Second, "b1", func() { got = append(got, "b1") })
	a.Schedule(Second, "a1", func() { got = append(got, "a1") })
	w.Run()
	if fmt.Sprint(got) != "[a0 a1 b0 b1]" {
		t.Fatalf("tie order = %v, want [a0 a1 b0 b1]", got)
	}
}

func TestCancel(t *testing.T) {
	w, s := testClock(1)
	fired := false
	e := s.Schedule(Second, "x", func() { fired = true })
	s.Cancel(e)
	w.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Double-cancel must be a no-op.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelInterleaved(t *testing.T) {
	w, s := testClock(1)
	var got []string
	var e2 *Event
	s.Schedule(10, "a", func() {
		got = append(got, "a")
		s.Cancel(e2)
	})
	e2 = s.Schedule(20, "b", func() { got = append(got, "b") })
	s.Schedule(30, "c", func() { got = append(got, "c") })
	w.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("got %v, want [a c]", got)
	}
}

func TestSchedulingFromWithinEvent(t *testing.T) {
	w, s := testClock(1)
	var times []Time
	s.Schedule(10, "outer", func() {
		s.After(5*time.Nanosecond, "inner", func() {
			times = append(times, s.Now())
		})
	})
	w.Run()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("inner event at %v, want [15]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	w, s := testClock(1)
	s.Schedule(100, "x", func() {})
	w.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(50, "past", func() {})
}

func TestRunUntil(t *testing.T) {
	w, s := testClock(1)
	var fired []Time
	for _, w := range []Time{10, 20, 30, 40} {
		w := w
		s.Schedule(w, "e", func() { fired = append(fired, w) })
	}
	w.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	w.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	w, s := testClock(1)
	w.RunFor(3 * time.Second)
	if s.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		w, s := testClock(seed)
		var vals []int64
		var rec func()
		rec = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 50 {
				s.After(time.Duration(s.Rand().Intn(100)+1)*time.Microsecond, "r", rec)
			}
		}
		s.After(time.Microsecond, "r", rec)
		w.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with identical seed diverge at %d: %d != %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTimerResetStop(t *testing.T) {
	w, s := testClock(1)
	count := 0
	tm := NewTimer(s, "t", func() { count++ })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(20 * time.Millisecond) // replaces, not adds
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if tm.Deadline() != 20*Millisecond {
		t.Fatalf("deadline = %v, want 20ms", tm.Deadline())
	}
	w.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
	tm.Reset(5 * time.Millisecond)
	tm.Stop()
	w.Run()
	if count != 1 {
		t.Fatalf("stopped timer fired, count = %d", count)
	}
	if tm.Deadline() != -1 {
		t.Fatalf("stopped timer has deadline %v", tm.Deadline())
	}
}

func TestTimerResetAt(t *testing.T) {
	w, s := testClock(1)
	var at Time = -1
	tm := NewTimer(s, "t", func() { at = s.Now() })
	tm.ResetAt(77 * Microsecond)
	w.Run()
	if at != 77*Microsecond {
		t.Fatalf("fired at %v, want 77µs", at)
	}
}

func TestTicker(t *testing.T) {
	w, s := testClock(1)
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(s, 100*time.Millisecond, "tick", func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	w.RunUntil(10 * Second)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, want := range []Time{100, 200, 300, 400, 500} {
		if ticks[i] != want*Millisecond {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want*Millisecond)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
	if Second.Add(500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("Add wrong")
	}
	if Second.String() != "1s" {
		t.Fatalf("String = %q", Second.String())
	}
	if Second.Duration() != time.Second {
		t.Fatal("Duration wrong")
	}
}

// Property: for any batch of events with arbitrary non-negative offsets,
// execution order is sorted by time, ties broken FIFO, and the final clock
// equals the max timestamp.
func TestQuickOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		w, s := testClock(7)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		var max Time
		for i, off := range offsets {
			w := Time(off)
			if w > max {
				max = w
			}
			i := i
			s.Schedule(w, "q", func() { fired = append(fired, rec{s.Now(), i}) })
		}
		w.Run()
		if s.Now() != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement to fire.
func TestQuickCancelProperty(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		w, s := testClock(3)
		events := make([]*Event, count)
		firedCount := 0
		for i := 0; i < count; i++ {
			events[i] = s.Schedule(Time(i+1), "q", func() { firedCount++ })
		}
		cancelled := 0
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Cancel(events[i])
				cancelled++
			}
		}
		w.Run()
		return firedCount == count-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
