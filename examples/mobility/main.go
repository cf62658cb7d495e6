// Mobility: the §4.2 smartphone scenario. A download runs over WiFi with
// cellular as an (unestablished) backup. The phone walks away from the
// access point — loss climbs — and the smart-backup controller moves the
// connection to cellular the moment the retransmission timer passes its
// threshold, instead of the ~15 RTO backoffs the kernel alone would need.
// The download starts under the "fullmesh" policy and is switched to
// "backup" at runtime — the facade's mid-transfer policy swap — so the
// cellular subflow built by fullmesh is torn down and the radio goes cold
// until the backup policy actually needs it.
package main

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/controller"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/tcp"
	"repro/internal/topo"
)

func main() {
	world := sim.NewWorld(7, 1)
	wifi := netem.LinkConfig{RateBps: 5e6, Delay: 15 * time.Millisecond}
	lte := netem.LinkConfig{RateBps: 8e6, Delay: 35 * time.Millisecond}
	n := topo.NewTwoPath(world, wifi, lte)

	phone := smapp.New(n.Client, smapp.Config{})
	server := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	sink := app.NewSink(n.Server.Clock(), 20<<20, func() {
		fmt.Printf("t=%-6v download complete\n", n.Server.Clock().Now().Duration().Round(time.Millisecond))
	})
	server.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })

	// Start under the energy-hungry fullmesh policy (both radios hot) ...
	src := app.NewSource(n.Client.Clock(), 20<<20, false)
	conn, err := phone.Dial(n.ClientAddrs[0], n.ServerAddr, 80,
		"fullmesh", smapp.ControllerConfig{}, src.Callbacks())
	if err != nil {
		panic(err)
	}
	conn.TracePush = firstUseReporter(n)

	// ... and swap to break-before-make backup at t=1.5s: the fullmesh
	// mesh over cellular is removed and the radio stays cold until needed.
	world.ScheduleGlobal(1500*sim.Millisecond, "switch-policy", func() {
		if err := phone.SwitchPolicy(conn, "backup", smapp.ControllerConfig{Threshold: time.Second}); err != nil {
			panic(err)
		}
		for _, sf := range conn.Subflows() {
			if sf.Tuple().SrcIP == n.ClientAddrs[1] {
				conn.CloseSubflow(sf, true) // cool the cellular radio down
			}
		}
		fmt.Printf("t=%-6v policy switched fullmesh -> backup (cellular back to cold standby)\n",
			world.Now().Duration().Round(time.Millisecond))
	})

	// Walking away from the AP: WiFi decays in steps.
	for i, loss := range []float64{0.05, 0.15, 0.30, 0.50} {
		at := sim.Time(2+i) * sim.Second
		l := loss
		world.ScheduleGlobal(at, "walk", func() {
			n.Path[0].AB.SetLoss(l)
			fmt.Printf("t=%-6v wifi loss -> %.0f%%\n", world.Now().Duration().Round(time.Millisecond), l*100)
		})
	}
	world.RunUntil(120 * sim.Second)

	if ctl, ok := phone.Controller(conn).(*controller.Backup); ok {
		fmt.Printf("\nswitches performed by the backup controller: %d\n", ctl.Stats.Switches)
	}
	fmt.Printf("cellular carried data during the fullmesh phase, went cold at the\n" +
		"policy switch, and came back only when the backup controller fired\n")
	if !sink.Done {
		fmt.Printf("download incomplete: %.1f MB\n", float64(sink.Received)/1e6)
	}
}

// firstUseReporter prints the first time each interface carries data.
func firstUseReporter(n *topo.TwoPath) func(*tcp.Subflow, uint64, int, bool) {
	seen := map[string]bool{}
	return func(sf *tcp.Subflow, rel uint64, ln int, re bool) {
		ip := sf.Tuple().SrcIP.String()
		if !seen[ip] {
			seen[ip] = true
			name := "wifi"
			if sf.Tuple().SrcIP == n.ClientAddrs[1] {
				name = "cellular"
			}
			fmt.Printf("t=%-6v first data on %s (%s)\n",
				n.Client.Clock().Now().Duration().Round(time.Millisecond), name, ip)
		}
	}
}
