package pm

import (
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
)

func twoPathRig(t *testing.T, seed int64, p mptcp.PathManager) (*sim.World, *topo.TwoPath, *mptcp.Connection, *mptcp.Endpoint) {
	t.Helper()
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	w := sim.NewWorld(seed, 1)
	n := topo.NewTwoPath(w, cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, p)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	sep.Listen(80, func(*mptcp.Connection) {})
	c, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	return w, n, c, cep
}

func TestFullMeshCreatesSubflowPerInterface(t *testing.T) {
	w, _, c, _ := twoPathRig(t, 1, NewFullMesh())
	w.Run()
	if got := len(c.Subflows()); got != 2 {
		t.Fatalf("subflows = %d, want 2 (one per interface)", got)
	}
	srcs := map[string]bool{}
	for _, sf := range c.Subflows() {
		srcs[sf.Tuple().SrcIP.String()] = true
		if !sf.Established() {
			t.Fatalf("subflow %v not established", sf.Tuple())
		}
	}
	if len(srcs) != 2 {
		t.Fatalf("subflows share a source address: %v", srcs)
	}
}

func TestFullMeshServerSidePassive(t *testing.T) {
	// The server's full-mesh PM must NOT create subflows (clients are
	// behind NATs; only the client side creates).
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	w := sim.NewWorld(2, 1)
	n := topo.NewTwoPath(w, cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, nil) // no client PM
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, NewFullMesh())
	var sconn *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { sconn = c })
	cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	w.Run()
	if sconn == nil {
		t.Fatal("no server connection")
	}
	if got := len(sconn.Subflows()); got != 1 {
		t.Fatalf("server created subflows: %d", got)
	}
}

func TestFullMeshInterfaceFlap(t *testing.T) {
	w, n, c, _ := twoPathRig(t, 3, NewFullMesh())
	w.Run()
	if len(c.Subflows()) != 2 {
		t.Fatalf("initial mesh = %d", len(c.Subflows()))
	}
	// Interface 1 goes down: its subflow is removed at once.
	n.Client.SetIfaceUp(n.ClientAddrs[1], false)
	w.Run()
	if got := len(c.Subflows()); got != 1 {
		t.Fatalf("subflows after if-down = %d, want 1", got)
	}
	// Interface returns: the mesh is rebuilt.
	n.Client.SetIfaceUp(n.ClientAddrs[1], true)
	w.Run()
	if got := len(c.Subflows()); got != 2 {
		t.Fatalf("subflows after if-up = %d, want 2", got)
	}
}

func TestFullMeshReactsToAddAddr(t *testing.T) {
	// Give the server a second address; when it announces it, the client
	// full-mesh extends to 2 local × 2 remote = 4 subflows.
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	w := sim.NewWorld(4, 1)
	n := topo.NewTwoPath(w, cfg, cfg)
	serverAddr2 := topo.ServerAddr.Next()
	n.Server.AddIface("eth1", serverAddr2, n.Trunk.BA)
	n.Router.AddRoute(serverAddr2, n.Trunk.AB)

	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, NewFullMesh())
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	var sconn *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { sconn = c })
	c, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	sconn.AnnounceAddr(serverAddr2, 80)
	w.Run()
	if got := len(c.Subflows()); got != 4 {
		t.Fatalf("mesh after ADD_ADDR = %d, want 4", got)
	}
}

func TestNDiffPortsCreatesNSubflows(t *testing.T) {
	w, n, c, _ := twoPathRig(t, 5, NewNDiffPorts(5))
	w.Run()
	if got := len(c.Subflows()); got != 5 {
		t.Fatalf("subflows = %d, want 5", got)
	}
	// All share the address pair but use distinct source ports.
	ports := map[uint16]bool{}
	for _, sf := range c.Subflows() {
		tp := sf.Tuple()
		if tp.SrcIP != n.ClientAddrs[0] || tp.DstIP != n.ServerAddr {
			t.Fatalf("ndiffports strayed off the initial address pair: %v", tp)
		}
		ports[tp.SrcPort] = true
	}
	if len(ports) != 5 {
		t.Fatalf("source ports not distinct: %v", ports)
	}
}

func TestNDiffPortsServerPassive(t *testing.T) {
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	w := sim.NewWorld(6, 1)
	n := topo.NewTwoPath(w, cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, nil)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, NewNDiffPorts(4))
	var sconn *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { sconn = c })
	cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	w.Run()
	if len(sconn.Subflows()) != 1 {
		t.Fatalf("server ndiffports created subflows: %d", len(sconn.Subflows()))
	}
}
