// Package topo builds the emulated topologies of the paper's Mininet
// experiments: the two-path multihomed-client setup of §4.2/§4.3, the
// four-path ECMP fabric of §4.4, the direct 1 Gbps lab link of §4.5
// (Fig. 3), and the NAT-traversing long-lived-connection path of §4.1.
package topo

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netem"
	"repro/internal/seg"
	"repro/internal/sim"
)

// Addresses used across topologies.
var (
	ClientAddr1 = netip.MustParseAddr("10.1.0.1") // e.g. WiFi
	ClientAddr2 = netip.MustParseAddr("10.2.0.1") // e.g. cellular
	ServerAddr  = netip.MustParseAddr("10.99.0.1")
)

// TwoPath is a multihomed client reaching a server over two independent
// paths (the smartphone WiFi+cellular scenario):
//
//	client if1 ── path[0] ──┐
//	                        ├── router ── trunk ── server
//	client if2 ── path[1] ──┘
type TwoPath struct {
	Client *netem.Host
	Server *netem.Host
	Router *netem.Router
	Path   [2]*netem.Duplex // client ↔ router, one per interface
	Trunk  *netem.Duplex    // router ↔ server

	ClientAddrs [2]netip.Addr
	ServerAddr  netip.Addr
}

// NewTwoPath builds the two-path topology. p0 and p1 configure the two
// client paths; the trunk is provisioned fat (1 Gbps, 0.1 ms) so the paths
// are the bottleneck, like the Mininet setups in the paper.
//
// The client lives in host group 1 and the router/server side in group 0,
// so a sharded world splits the topology at the access paths (whose
// propagation delays bound the lookahead).
func NewTwoPath(f sim.Fabric, p0, p1 netem.LinkConfig) *TwoPath {
	t := &TwoPath{
		Client:      netem.NewHost(f.HostClock(1, "client"), "client"),
		Server:      netem.NewHost(f.HostClock(0, "server"), "server"),
		ClientAddrs: [2]netip.Addr{ClientAddr1, ClientAddr2},
		ServerAddr:  ServerAddr,
	}
	t.Router = netem.NewRouter(f.HostClock(0, "router"), "router", 1)
	t.Path[0] = netem.NewDuplex("path0", t.Client, t.Router, p0)
	t.Path[1] = netem.NewDuplex("path1", t.Client, t.Router, p1)
	t.Trunk = netem.NewDuplex("trunk", t.Router, t.Server, netem.LinkConfig{
		RateBps: 1e9, Delay: 100 * time.Microsecond,
	})
	t.Client.AddIface("if0", ClientAddr1, t.Path[0].AB)
	t.Client.AddIface("if1", ClientAddr2, t.Path[1].AB)
	t.Server.AddIface("eth0", ServerAddr, t.Trunk.BA)
	t.Router.AddRoute(ClientAddr1, t.Path[0].BA)
	t.Router.AddRoute(ClientAddr2, t.Path[1].BA)
	t.Router.AddRoute(ServerAddr, t.Trunk.AB)
	return t
}

// ECMP is the §4.4 fabric: single-homed client and server attached to two
// routers that load-balance flows over N parallel paths by hashing the
// 4-tuple:
//
//	client ── access ── R1 ══ paths[0..n-1] ══ R2 ── access ── server
type ECMP struct {
	Client *netem.Host
	Server *netem.Host
	R1, R2 *netem.Router
	Paths  []*netem.Duplex

	ClientAddr netip.Addr
	ServerAddr netip.Addr

	hashSeed uint64
}

// NewECMP builds the fabric with the given per-path configurations (the
// paper uses four paths of 8 Mbps with 10/20/30/40 ms delay). hashSeed
// varies the ECMP hash function between trials, standing in for the
// unpredictable per-router hashing of real networks.
func NewECMP(f sim.Fabric, paths []netem.LinkConfig, hashSeed uint64) *ECMP {
	t := &ECMP{
		Client:     netem.NewHost(f.HostClock(1, "client"), "client"),
		Server:     netem.NewHost(f.HostClock(0, "server"), "server"),
		ClientAddr: ClientAddr1,
		ServerAddr: ServerAddr,
		hashSeed:   hashSeed,
	}
	// Both routers share the hash seed; with the canonicalised flow hash
	// this yields symmetric forward/return paths per subflow.
	t.R1 = netem.NewRouter(f.HostClock(0, "r1"), "r1", hashSeed)
	t.R2 = netem.NewRouter(f.HostClock(0, "r2"), "r2", hashSeed)
	access := netem.LinkConfig{RateBps: 1e9, Delay: 100 * time.Microsecond}
	accC := netem.NewDuplex("accessC", t.Client, t.R1, access)
	accS := netem.NewDuplex("accessS", t.R2, t.Server, access)
	t.Client.AddIface("eth0", t.ClientAddr, accC.AB)
	t.Server.AddIface("eth0", t.ServerAddr, accS.BA)

	var fwd, rev []*netem.Link
	for i, cfg := range paths {
		d := netem.NewDuplex(fmt.Sprintf("path%d", i), t.R1, t.R2, cfg)
		t.Paths = append(t.Paths, d)
		fwd = append(fwd, d.AB)
		rev = append(rev, d.BA)
	}
	t.R1.AddRoute(t.ServerAddr, fwd...)
	t.R1.AddRoute(t.ClientAddr, accC.BA)
	t.R2.AddRoute(t.ClientAddr, rev...)
	t.R2.AddRoute(t.ServerAddr, accS.AB)
	return t
}

// PathIndexOf reports which ECMP path a subflow's 4-tuple maps to (ground
// truth for the Fig. 2c analysis).
func (t *ECMP) PathIndexOf(srcPort, dstPort uint16) int {
	ft := seg.FourTuple{SrcIP: t.ClientAddr, DstIP: t.ServerAddr, SrcPort: srcPort, DstPort: dstPort}
	return int(netem.FlowHash(ft, t.hashSeed) % uint64(len(t.Paths)))
}

// Direct is the §4.5 lab setup: two hosts on one duplex link.
type Direct struct {
	Client *netem.Host
	Server *netem.Host
	Link   *netem.Duplex

	ClientAddr netip.Addr
	ServerAddr netip.Addr
}

// NewDirect connects two hosts back to back (client in group 0, server in
// group 1 so even this minimal topology can split across two shards when
// the wire has a propagation delay).
func NewDirect(f sim.Fabric, cfg netem.LinkConfig) *Direct {
	t := &Direct{
		Client:     netem.NewHost(f.HostClock(0, "client"), "client"),
		Server:     netem.NewHost(f.HostClock(1, "server"), "server"),
		ClientAddr: ClientAddr1,
		ServerAddr: ServerAddr,
	}
	t.Link = netem.NewDuplex("wire", t.Client, t.Server, cfg)
	t.Client.AddIface("eth0", t.ClientAddr, t.Link.AB)
	t.Server.AddIface("eth0", t.ServerAddr, t.Link.BA)
	return t
}

// NATPath is the §4.1 scenario: a multihomed client whose paths traverse a
// stateful middlebox with an idle timeout before reaching the server.
//
//	client if0 ── path[0] ──┐
//	                        ├── NAT ── trunk ── server
//	client if1 ── path[1] ──┘
type NATPath struct {
	Client *netem.Host
	Server *netem.Host
	NAT    *netem.Middlebox
	Path   [2]*netem.Duplex
	Trunk  *netem.Duplex

	ClientAddrs [2]netip.Addr
	ServerAddr  netip.Addr
}

// NewNATPath builds the NAT topology with the given idle timeout and expiry
// policy.
func NewNATPath(f sim.Fabric, p0, p1 netem.LinkConfig, idle time.Duration, policy netem.ExpiryPolicy) *NATPath {
	t := &NATPath{
		Client:      netem.NewHost(f.HostClock(1, "client"), "client"),
		Server:      netem.NewHost(f.HostClock(0, "server"), "server"),
		ClientAddrs: [2]netip.Addr{ClientAddr1, ClientAddr2},
		ServerAddr:  ServerAddr,
	}
	t.NAT = netem.NewMiddlebox(f.HostClock(0, "nat"), "nat", idle, policy)
	t.Path[0] = netem.NewDuplex("path0", t.Client, t.NAT, p0)
	t.Path[1] = netem.NewDuplex("path1", t.Client, t.NAT, p1)
	t.Trunk = netem.NewDuplex("trunk", t.NAT, t.Server, netem.LinkConfig{
		RateBps: 1e9, Delay: 100 * time.Microsecond,
	})
	t.Client.AddIface("if0", ClientAddr1, t.Path[0].AB)
	t.Client.AddIface("if1", ClientAddr2, t.Path[1].AB)
	t.Server.AddIface("eth0", ServerAddr, t.Trunk.BA)
	t.NAT.AddRoute(ClientAddr1, t.Path[0].BA)
	t.NAT.AddRoute(ClientAddr2, t.Path[1].BA)
	t.NAT.AddRoute(ServerAddr, t.Trunk.AB)
	return t
}
