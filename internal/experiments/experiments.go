// Package experiments reproduces every figure of the paper's evaluation:
//
//   - Fig. 2a (§4.2): smart backup — data-sequence trace showing the
//     controller switching to the backup path when the RTO exceeds 1 s,
//     plus the in-kernel baseline that needs ~15 RTO backoffs (minutes);
//   - Fig. 2b (§4.3): smart streaming — CDFs of 64 KB block completion
//     times under 10–40 % loss, default full-mesh vs the smart-stream
//     controller;
//   - Fig. 2c (§4.4): refresh vs ndiffports — CDFs of 100 MB completion
//     times over a 4-path ECMP fabric;
//   - Fig. 3 (§4.5): kernel vs userspace path manager — CDFs of the delay
//     between the MP_CAPABLE SYN and the MP_JOIN SYN;
//   - §4.1 (no figure): long-lived connections through a NAT with idle
//     timeouts, userspace full-mesh controller vs the plain stack.
//
// Beyond the paper, the scale experiment stresses the pooled data path:
// N concurrent connections × M subflows through a shared bottleneck,
// swept over schedulers and controllers (see scale.go).
//
// Every experiment is expressed as a declarative scenario spec (see
// internal/scenario) registered under its figure name, so cmd/mpexp can
// run it generically (`mpexp run fig2a -set loss=0.4`) and sweeps can
// cross it with any scheduler or controller. The package exports nothing:
// importers link it for its registrations and run every experiment by
// name through scenario.Build/Job/Execute — the one path cmd/mpexp, the
// workspace, the benchmarks and the tests share. Each factory writes each
// parameter's default once, in its Params getter call; -smoke shrinks a
// fallback default before the read, so an explicit value always wins.
//
// Every experiment is deterministic given its seed and returns both a
// human-readable report and the raw samples/series.
package experiments

import (
	// The fleet corpus registers its "fleet"/"fleetsweep" scenarios at
	// init; importing it here puts them on every surface that iterates
	// the registry — mpexp run/sweep/list/all, the smoke targets, and
	// TestEveryScenarioDeterministic.
	_ "repro/internal/fleet"
	"repro/internal/stats"
)

// sample aliases stats.Sample for brevity inside this package.
type sample = stats.Sample
