package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/nlmsg"
	"repro/internal/scenario"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// The benchmark observes the simulator only through public seams: it
// wraps each run's Topology (to time Topology.Build and pick up the run's
// metrics registry), the spec's Render hook (to see the finished runs),
// and registers wrapped copies of the lowest-rtt scheduler and the
// fullmesh controller under their own names. Render sees the original
// names again, so reports and scalars are those of an unwrapped run.
const (
	benchSched = "lowest-rtt.bench"
	benchCtl   = "fullmesh.bench"
)

// probe collects what one Execute exposes at the seams. The wrapped
// scheduler and controller factories run on shard goroutines, so their
// instance lists are guarded; each instance is then written only by the
// shard that owns its connection.
type probe struct {
	timed bool // time Pick and policy callbacks (traced runs only)

	topoBuild time.Duration
	regs      []*metrics.Registry
	runs      []*scenario.Run

	mu     sync.Mutex
	scheds []*timedSched
	ctls   []*countedCtl
}

// cur is the probe of the run in progress: the registered factories are
// process-global, so they report to whichever run is executing. Runs
// execute one at a time.
var cur *probe

func init() {
	sched, err := mptcp.LookupScheduler("lowest-rtt")
	if err != nil {
		panic(err)
	}
	mptcp.RegisterScheduler(benchSched, func(rng *rand.Rand) mptcp.Scheduler {
		s := &timedSched{inner: sched(rng)}
		cur.mu.Lock()
		cur.scheds = append(cur.scheds, s)
		cur.mu.Unlock()
		return s
	})
	inner, err := smapp.LookupController("fullmesh")
	if err != nil {
		panic(err)
	}
	smapp.RegisterController(benchCtl, func(cfg smapp.ControllerConfig) (controller.Controller, error) {
		c, err := inner(cfg)
		if err != nil {
			return nil, err
		}
		w := &countedCtl{inner: c, timed: cur.timed}
		cur.mu.Lock()
		cur.ctls = append(cur.ctls, w)
		cur.mu.Unlock()
		return w, nil
	})
}

// instrument wires the probe into a freshly built spec. Every run gets
// the counting controller in place of fullmesh, so decisions can be
// counted on every workload; timed runs also get the timing scheduler in
// place of lowest-rtt.
func (pr *probe) instrument(sp *scenario.Spec) {
	type names struct{ sched, policy string }
	orig := make([]names, len(sp.Runs))
	for i, rs := range sp.Runs {
		orig[i] = names{rs.Sched, rs.Policy}
		rs.Topology = &timedTopology{inner: rs.Topology, pr: pr}
		if rs.Policy == "fullmesh" {
			rs.Policy = benchCtl
		}
		if pr.timed && (rs.Sched == "" || rs.Sched == "lowest-rtt") {
			rs.Sched = benchSched
		}
	}
	render := sp.Render
	sp.Render = func(res *stats.Result, runs []*scenario.Run) {
		for i, rs := range sp.Runs {
			rs.Sched, rs.Policy = orig[i].sched, orig[i].policy
		}
		pr.runs = runs
		if render != nil {
			render(res, runs)
		}
	}
}

// timedTopology times Topology.Build and records the run's metrics
// registry, which the engine publishes (metrics.SetLive) before building.
type timedTopology struct {
	inner scenario.Topology
	pr    *probe
}

func (t *timedTopology) Build(f sim.Fabric, seed int64) *scenario.Net {
	if r := metrics.Live(); r != nil && t.pr.timed {
		t.pr.regs = append(t.pr.regs, r)
	}
	start := time.Now()
	n := t.inner.Build(f, seed)
	t.pr.topoBuild += time.Since(start)
	return n
}

func (t *timedTopology) Describe() string { return t.inner.Describe() }

// timedSched counts and times Pick calls of one connection's scheduler.
type timedSched struct {
	inner mptcp.Scheduler
	picks uint64
	busy  time.Duration
}

func (s *timedSched) Name() string { return s.inner.Name() }

func (s *timedSched) Pick(subflows []*tcp.Subflow, want int) *tcp.Subflow {
	start := time.Now()
	sf := s.inner.Pick(subflows, want)
	s.busy += time.Since(start)
	s.picks++
	return sf
}

// countedCtl wraps one connection's fullmesh controller: it counts the
// create/remove/backup commands the policy issues and, when timed, the
// host time spent inside its event callbacks and timers.
type countedCtl struct {
	inner     controller.Controller
	timed     bool
	decisions uint64
	busy      time.Duration
}

func (c *countedCtl) Name() string        { return c.inner.Name() }
func (c *countedCtl) Attach(lib core.Lib) { c.inner.Attach(&countedLib{Lib: lib, c: c}) }
func (c *countedCtl) Detach()             { c.inner.Detach() }

func (c *countedCtl) time(fn func(*nlmsg.Event)) func(*nlmsg.Event) {
	if fn == nil || !c.timed {
		return fn // a nil callback keeps the subscription mask unchanged
	}
	return func(ev *nlmsg.Event) {
		start := time.Now()
		fn(ev)
		c.busy += time.Since(start)
	}
}

// countedLib is the core.Lib the wrapped policy sees.
type countedLib struct {
	core.Lib
	c *countedCtl
}

func (l *countedLib) Register(cbs core.Callbacks, done func(errno uint32)) {
	t := l.c.time
	l.Lib.Register(core.Callbacks{
		Created:        t(cbs.Created),
		Established:    t(cbs.Established),
		Closed:         t(cbs.Closed),
		SubEstablished: t(cbs.SubEstablished),
		SubClosed:      t(cbs.SubClosed),
		AddAddr:        t(cbs.AddAddr),
		RemAddr:        t(cbs.RemAddr),
		Timeout:        t(cbs.Timeout),
		LocalAddrUp:    t(cbs.LocalAddrUp),
		LocalAddrDown:  t(cbs.LocalAddrDown),
	}, done)
}

func (l *countedLib) CreateSubflow(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	l.c.decisions++
	l.Lib.CreateSubflow(token, ft, backup, done)
}

func (l *countedLib) RemoveSubflow(token uint32, ft seg.FourTuple, done func(errno uint32)) {
	l.c.decisions++
	l.Lib.RemoveSubflow(token, ft, done)
}

func (l *countedLib) SetBackup(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	l.c.decisions++
	l.Lib.SetBackup(token, ft, backup, done)
}

func (l *countedLib) After(d time.Duration, fn func()) func() {
	if !l.c.timed {
		return l.Lib.After(d, fn)
	}
	return l.Lib.After(d, func() {
		start := time.Now()
		fn()
		l.c.busy += time.Since(start)
	})
}
