// Package runner is the concurrent multi-seed experiment harness: it fans
// N independent seeds of one experiment across a bounded pool of worker
// goroutines and aggregates the per-seed results into distributions.
//
// Determinism is preserved per seed because every job builds its own
// sim.World from its seed and shares nothing with the other seeds —
// the worker pool only changes wall-clock interleaving, never the virtual
// timeline. Running the same seed set with Parallel=1 or Parallel=8 yields
// bit-identical per-seed scalars (internal/runner tests enforce this).
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Job runs one experiment for one seed and returns its result. It must be
// self-contained: build the simulator from the seed, touch no shared
// mutable state. Jobs run concurrently on the pool's workers.
type Job func(seed int64) *stats.Result

// Config sizes a multi-seed run.
type Config struct {
	// Seeds is the number of independent seeds; <=0 means 1.
	Seeds int
	// BaseSeed is the first seed; seed i runs with BaseSeed+i. Zero is a
	// valid base (it is honoured, not rebased, so a multi-seed run always
	// includes the exact seed a single run used).
	BaseSeed int64
	// Parallel bounds concurrently running seeds; <=0 means GOMAXPROCS.
	Parallel int
	// OnDone, when non-nil, observes each finished seed (for progress
	// output). It is called from worker goroutines and must be
	// goroutine-safe.
	OnDone func(sr SeedResult)
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Parallel > c.Seeds {
		c.Parallel = c.Seeds
	}
	return c
}

// SeedResult is the outcome of one seed.
type SeedResult struct {
	Seed   int64
	Result *stats.Result // nil when Err != nil
	Err    error         // non-nil when the job panicked
}

// Multi collects every seed of one experiment run.
type Multi struct {
	Name    string
	Config  Config
	PerSeed []SeedResult // ordered by seed, not by completion
}

// Run executes cfg.Seeds seeds of job on cfg.Parallel workers and returns
// the collected results ordered by seed. A panicking seed is captured as
// that seed's Err; the remaining seeds still run.
func Run(name string, cfg Config, job Job) *Multi {
	cfg = cfg.withDefaults()
	out := make([]SeedResult, cfg.Seeds)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Seeds {
					return
				}
				out[i] = runOne(cfg.BaseSeed+int64(i), job)
				if cfg.OnDone != nil {
					cfg.OnDone(out[i])
				}
			}
		}()
	}
	wg.Wait()
	return &Multi{Name: name, Config: cfg, PerSeed: out}
}

// runOne executes a single seed, converting a panic into an error so one
// broken seed cannot take down the whole sweep.
func runOne(seed int64, job Job) (sr SeedResult) {
	sr.Seed = seed
	defer func() {
		if r := recover(); r != nil {
			sr.Result = nil
			sr.Err = fmt.Errorf("seed %d panicked: %v", seed, r)
		}
	}()
	sr.Result = job(seed)
	return sr
}

// Failed lists the seeds whose jobs returned an error.
func (m *Multi) Failed() []SeedResult {
	var out []SeedResult
	for _, sr := range m.PerSeed {
		if sr.Err != nil {
			out = append(out, sr)
		}
	}
	return out
}
