// Streaming: the §4.3 scenario. A latency-sensitive application streams
// 64 KB blocks once per second over a lossy path; the smart-stream
// controller probes transfer progress mid-block via snd_una and opens a
// second subflow (and kills RTO-inflated ones) to keep block delays
// bounded. The same run against the in-kernel full-mesh baseline shows
// the long tail. Both sides of the comparison are one Dial with a
// different policy argument.
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
	"repro/internal/stats"
	"repro/internal/topo"
)

func run(policy string) *stats.Sample {
	world := sim.NewWorld(99, 1)
	p := netem.LinkConfig{RateBps: 5e6, Delay: 10 * time.Millisecond}
	n := topo.NewTwoPath(world, p, p)

	scfg := smapp.Config{}
	if policy == "" {
		scfg.KernelPM = pm.NewFullMesh() // the kernel default the paper compares against
	}
	client := smapp.New(n.Client, scfg)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	bsink := app.NewBlockSink(n.Server.Clock(), 64<<10)
	sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(bsink.Callbacks()) })

	streamer := app.NewBlockStreamer(n.Client.Clock(), time.Second, 64<<10, 60)
	if _, err := client.Dial(n.ClientAddrs[0], n.ServerAddr, 80,
		policy, smapp.ControllerConfig{}, streamer.Callbacks()); err != nil {
		panic(err)
	}
	world.ScheduleGlobal(sim.Second, "degrade", func() { n.Path[0].AB.SetLoss(0.30) })
	world.RunUntil(3 * sim.Minute)

	delays := &stats.Sample{}
	for k, at := range bsink.CompletedAt {
		sent := streamer.StartedAt.Add(time.Duration(k) * time.Second)
		delays.Add(time.Duration(at - sent).Seconds())
	}
	return delays
}

func main() {
	fmt.Println("streaming 60 blocks of 64 KB at 1 block/s; 30% loss on the initial path from t=1s")
	smart := run("stream")
	plain := run("")
	fmt.Printf("\n%-24s %s\n", "smart-stream controller:", smart.Summary("s"))
	fmt.Printf("%-24s %s\n\n", "default full-mesh:", plain.Summary("s"))
	fmt.Println(stats.RenderCDFs(60, 12, map[string]*stats.Sample{
		"smart stream": smart,
		"full-mesh":    plain,
	}))
}
