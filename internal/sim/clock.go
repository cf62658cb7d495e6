package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Fabric hands out per-entity clocks during topology construction. Hosts
// in the same group share a shard; the fabric maps groups to shards.
// *World is the fabric every run builds on.
type Fabric interface {
	// HostClock returns the clock for a host in the given placement
	// group. Groups are stable topology-level labels; the fabric decides
	// how they fold onto shards.
	HostClock(group int, name string) *Clock
}

// WorldOf reports the world a clock belongs to. netem uses it to register
// cross-shard link crossings.
func WorldOf(c *Clock) *World { return c.w }

// ShardIndex reports which shard's event loop a clock schedules on. The
// metrics layer uses it to hand each host's stack the storage slot its
// shard owns, keeping every metric slot single-writer.
func ShardIndex(c *Clock) int { return c.shard }

// splitmix64 is the SplitMix64 mixer — cheap, full-period, and good
// enough to decorrelate per-entity seeds derived from one run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// entitySeed derives entity ent's RNG seed from the run seed. Ordinals
// are assigned in build order, which does not depend on the shard count,
// so the per-entity streams are identical at any sharding.
func entitySeed(seed int64, ent uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) + ent))
}

// Clock is the scheduling surface every simulated entity (host, link,
// protocol stack, application) programs against. A World issues one per
// entity, bound to the shard event loop the entity lives on; entities
// never touch the loop directly, which is what lets the same stack code
// run on one shard or many.
//
// Events a Clock schedules are ordered by (when, ent, seq): ent is the
// entity's build ordinal and seq its private counter, so the total event
// order — and therefore every simulated result — is independent of how
// entities fold onto shards.
type Clock struct {
	w     *World
	sh    *eventLoop
	shard int
	ent   uint64
	seq   uint64
	rng   *rand.Rand
	name  string
}

func (c *Clock) next() uint64 {
	n := c.seq
	c.seq++
	return n
}

// Now reports the current virtual time of the clock's event loop.
func (c *Clock) Now() Time { return c.sh.now }

// Rand is the clock's deterministic random stream. Every entity has its
// own, so draws do not depend on how entities interleave across shards.
// All model randomness (loss draws, jitter, port selection) comes from
// here.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// Schedule runs fn at absolute virtual time when. Scheduling in the past
// (before Now) panics: it always indicates a model bug.
func (c *Clock) Schedule(when Time, name string, fn func()) *Event {
	c.sh.checkFuture(when, name)
	e := &Event{when: when, ent: c.ent, seq: c.next(), fn: fn, name: name}
	heap.Push(&c.sh.queue, e)
	return e
}

// After runs fn d after the current time.
func (c *Clock) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.Schedule(c.sh.now.Add(d), name, fn)
}

// ScheduleArg is the allocation-free Schedule variant for the data path:
// fn must be a preallocated func value and any per-event state rides in
// arg (pass a pointer so boxing into the interface does not allocate).
// The backing Event comes from the loop's free list and is recycled right
// after firing, so no handle is returned and the event cannot be
// cancelled.
func (c *Clock) ScheduleArg(when Time, name string, fn func(any), arg any) {
	c.sh.scheduleArgKeyed(when, c.ent, c.next(), name, fn, arg)
}

// AfterArg is ScheduleArg relative to the current time.
func (c *Clock) AfterArg(d time.Duration, name string, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	c.ScheduleArg(c.sh.now.Add(d), name, fn, arg)
}

// Cancel removes a pending event scheduled through this clock. Cancelling
// a fired or already-cancelled event is a no-op, so callers may cancel
// unconditionally.
func (c *Clock) Cancel(e *Event) {
	if e == nil || e.idx < 0 {
		return
	}
	c.sh.remove(e)
	e.fn = nil
}

// Reschedule cancels e (if pending) and schedules fn at when, returning
// the new event. It is the common pattern for restarting timers.
func (c *Clock) Reschedule(e *Event, when Time, name string, fn func()) *Event {
	c.Cancel(e)
	return c.Schedule(when, name, fn)
}

// SendTo schedules a pooled event onto dst's event loop, ordered by THIS
// clock's identity. It is the one legal way to schedule work for an
// entity that may live on another shard (netem links use it for packet
// delivery); when src and dst share a loop it degenerates to ScheduleArg.
// The destination timestamp must be at least one cross-shard lookahead in
// the future, which link propagation delays guarantee by construction.
func (c *Clock) SendTo(dst *Clock, when Time, name string, fn func(any), arg any) {
	if dst.shard == c.shard {
		c.sh.scheduleArgKeyed(when, c.ent, c.next(), name, fn, arg)
		return
	}
	c.w.post(dst.shard, crossMsg{when: when, ent: c.ent, seq: c.next(), name: name, fn: fn, arg: arg})
}

// Derive creates a sibling clock on the same event loop with its own
// identity and random stream — links derive theirs from the source node's
// clock.
func (c *Clock) Derive(name string) *Clock { return c.w.deriveClock(c.shard, name) }

// rearmOwned (re)schedules a caller-owned event (Timer / Ticker): if
// pending it moves in place via heap.Fix, otherwise it is pushed afresh.
// The event's fn survives firing, so one Event serves its owner's whole
// lifetime without allocation.
func (c *Clock) rearmOwned(e *Event, when Time) {
	c.sh.checkFuture(when, e.name)
	e.when = when
	e.ent = c.ent
	e.seq = c.next()
	if e.idx >= 0 {
		heap.Fix(&c.sh.queue, e.idx)
		return
	}
	heap.Push(&c.sh.queue, e)
}

// cancelOwned removes a pending owned event without clearing its fn.
func (c *Clock) cancelOwned(e *Event) { c.sh.remove(e) }
