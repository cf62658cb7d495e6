// Loadbalance: the §4.4 scenario. A single-homed pair is separated by a
// 4-path ECMP fabric; the client opens 5 subflows on random source ports.
// The refresh controller polls each subflow's pacing_rate every 2.5 s,
// kills the slowest and re-rolls the ECMP dice, converging onto all four
// paths — unlike ndiffports, which lives with its initial draw. Each
// variant is one Dial: policy "refresh" vs the in-kernel ndiffports.
package main

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/pm"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/tcp"
	"repro/internal/topo"
)

func run(hashSeed uint64, policy string) (sec float64, pathsUsed int) {
	world := sim.NewWorld(int64(hashSeed)*17, 1)
	var paths []netem.LinkConfig
	for i := 0; i < 4; i++ {
		paths = append(paths, netem.LinkConfig{
			RateBps: 8e6, Delay: time.Duration(10*(i+1)) * time.Millisecond,
		})
	}
	n := topo.NewECMP(world, paths, hashSeed)

	scfg := smapp.Config{}
	if policy == "" {
		scfg.KernelPM = pm.NewNDiffPorts(5)
	}
	client := smapp.New(n.Client, scfg)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	var done sim.Time = -1
	sink := app.NewSink(n.Server.Clock(), 100<<20, nil)
	sink.OnComplete = func() { done = n.Server.Clock().Now() }
	sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })

	src := app.NewSource(n.Client.Clock(), 100<<20, false)
	conn, err := client.Dial(n.ClientAddr, n.ServerAddr, 80,
		policy, smapp.ControllerConfig{Subflows: 5}, src.Callbacks())
	if err != nil {
		panic(err)
	}
	for world.Now() < 180*sim.Second && done < 0 {
		world.RunFor(time.Second)
	}
	used := map[int]bool{}
	for _, sfi := range client.Info(conn).Subflows {
		if sfi.State == tcp.StateEstablished {
			used[n.PathIndexOf(sfi.Tuple.SrcPort, sfi.Tuple.DstPort)] = true
		}
	}
	return done.Seconds(), len(used)
}

func main() {
	fmt.Println("100 MB over 5 subflows across a 4-path ECMP fabric (8 Mbps, 10/20/30/40 ms)")
	fmt.Printf("%-6s %-22s %-22s\n", "trial", "ndiffports", "refresh")
	for seed := uint64(1); seed <= 5; seed++ {
		tn, pn := run(seed, "")
		tr, pr := run(seed, "refresh")
		fmt.Printf("%-6d %6.1fs on %d paths %9.1fs on %d paths\n", seed, tn, pn, tr, pr)
	}
	fmt.Println("\nreference: all 4 paths ≈ 26s, a single path ≈ 105s (paper: 27.8s / 111.7s)")
}
