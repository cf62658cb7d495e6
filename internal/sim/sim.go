// Package sim provides a deterministic discrete-event simulation engine.
//
// All higher layers of this repository (network emulation, the TCP and
// Multipath TCP stacks, the subflow controllers) schedule against a
// *Clock: a per-entity view of one shard event loop of a World. Events
// are callbacks scheduled at absolute virtual times; each shard
// repeatedly pops its earliest event and runs it, and the World advances
// the shards in lockstep windows. A World of one shard is the plain
// single-threaded simulator. Runs are fully deterministic for a given
// seed at any shard count, which makes every experiment in this
// repository reproducible bit-for-bit.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It intentionally mirrors time.Duration semantics so the two
// interoperate cheaply.
type Time int64

// Common time unit helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Duration converts a virtual timestamp into a time.Duration from t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Event is a scheduled callback. Holding the *Event returned by
// Clock.Schedule allows cancellation.
//
// Events come in three flavours, distinguished so the steady-state data
// path never allocates:
//   - classic events (Schedule/After): heap-allocated, handle escapes to
//     the caller, never recycled;
//   - pooled events (ScheduleArg): drawn from the shard loop's free list
//     and recycled immediately after firing — no handle, no cancellation;
//   - owned events (Timer/Ticker): embedded in their owner and re-armed
//     in place for the owner's whole lifetime.
type Event struct {
	when Time
	ent  uint64 // owning entity ordinal (its Clock's build order)
	seq  uint64 // tie-break: FIFO among equal (when, ent)
	fn   func()
	idx  int // heap index, -1 once removed
	name string

	argFn  func(any) // pooled events: preallocated callback
	arg    any       // pooled events: per-event state (a pointer, no boxing)
	pooled bool      // recycle onto the free list after firing
	owned  bool      // fn survives firing (Timer/Ticker re-arm in place)
}

// When reports the virtual time this event fires at.
func (e *Event) When() Time { return e.when }

// Cancelled reports whether the event has been cancelled or already fired.
func (e *Event) Cancelled() bool { return e.idx < 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

// Less orders events by the total key (when, ent, seq): FIFO per entity
// among equal times, entities in build order. The entity ordinal and
// per-entity sequence make the key independent of how entities fold onto
// shards, which is what keeps sharded runs bit-identical at any shard
// count.
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	if h[i].ent != h[j].ent {
		return h[i].ent < h[j].ent
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// eventLoop is one shard's virtual clock and pending event queue. It is
// not safe for concurrent use: a shard runs on one goroutine at a time,
// and only the World hands it work (through the shard's Clocks between
// barriers, and through the mailbox at a barrier).
type eventLoop struct {
	now       Time
	queue     eventHeap
	free      []*Event // recycled pooled events (ScheduleArg)
	processed uint64

	// Pooled-event free-list traffic. Single-writer (the loop's own
	// goroutine), harvested between runs via World.RuntimeStats.
	evGets uint64 // pooled events drawn (free list or fresh)
	evPuts uint64 // pooled events recycled after firing
	evNews uint64 // draws that missed the free list
}

// maxFreeEvents bounds the pooled-event free list; beyond this the burst
// is returned to the garbage collector.
const maxFreeEvents = 1 << 14

// checkFuture panics when when lies before the loop's clock: scheduling
// in the past always indicates a model bug.
func (s *eventLoop) checkFuture(when Time, name string) {
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, when, s.now))
	}
}

// scheduleArgKeyed pushes a pooled event with a caller-provided ordering
// key. Clocks and the cross-shard mailbox route through here so the
// (when, ent, seq) key is computed by the sender, making the total order
// independent of which shard the event lands on.
func (s *eventLoop) scheduleArgKeyed(when Time, ent, seqn uint64, name string, fn func(any), arg any) {
	s.checkFuture(when, name)
	var e *Event
	s.evGets++
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		s.evNews++
		e = &Event{pooled: true}
	}
	e.when, e.ent, e.seq, e.name, e.argFn, e.arg = when, ent, seqn, name, fn, arg
	heap.Push(&s.queue, e)
}

// remove takes a pending event off the queue; fired or already-removed
// events are left alone.
func (s *eventLoop) remove(e *Event) {
	if e == nil || e.idx < 0 {
		return
	}
	heap.Remove(&s.queue, e.idx)
	e.idx = -1
}

// step executes the earliest event.
func (s *eventLoop) step() {
	e := heap.Pop(&s.queue).(*Event)
	if e.when < s.now {
		panic("sim: time went backwards")
	}
	s.now = e.when
	s.processed++
	switch {
	case e.argFn != nil:
		fn, arg := e.argFn, e.arg
		e.argFn, e.arg = nil, nil
		fn(arg)
		if e.pooled && len(s.free) < maxFreeEvents {
			s.evPuts++
			s.free = append(s.free, e)
		}
	case e.owned:
		// fn is preserved: the owner re-arms this very event.
		if e.fn != nil {
			e.fn()
		}
	default:
		fn := e.fn
		e.fn = nil
		if fn != nil {
			fn()
		}
	}
}

// runWindow executes queued events up to limit — strictly below it when
// inclusive is false, through it when true — then parks the clock at
// limit. It is the shard-side worker for World's conservative windows.
func (s *eventLoop) runWindow(limit Time, inclusive bool) {
	for len(s.queue) > 0 {
		top := s.queue[0].when
		if top > limit || (!inclusive && top == limit) {
			break
		}
		s.step()
	}
	if s.now < limit {
		s.now = limit
	}
}
