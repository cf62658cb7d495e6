package app

import (
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
)

func rig(t *testing.T, seed int64) (*sim.World, *topo.TwoPath, *mptcp.Endpoint, *mptcp.Endpoint) {
	t.Helper()
	cfg := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	w := sim.NewWorld(seed, 1)
	n := topo.NewTwoPath(w, cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, nil)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	return w, n, cep, sep
}

func TestSourceSink(t *testing.T) {
	w, n, cep, sep := rig(t, 1)
	done := false
	sink := NewSink(n.Server.Clock(), 1<<20, func() { done = true })
	sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
	src := NewSource(n.Client.Clock(), 1<<20, true)
	if _, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, src.Callbacks()); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if !done || !sink.Done {
		t.Fatal("transfer incomplete")
	}
	if sink.Received != 1<<20 {
		t.Fatalf("received %d", sink.Received)
	}
	if sink.CompletedAt <= src.StartedAt {
		t.Fatal("completion before start")
	}
	// 1 MiB over 50 Mbps ≈ 0.17s + RTTs; sanity bound.
	if sink.CompletedAt.Seconds() > 2 {
		t.Fatalf("transfer too slow: %v", sink.CompletedAt)
	}
}

func TestBlockStreamerCadence(t *testing.T) {
	w, n, cep, sep := rig(t, 2)
	bsink := NewBlockSink(n.Server.Clock(), 64<<10)
	sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(bsink.Callbacks()) })
	streamer := NewBlockStreamer(n.Client.Clock(), time.Second, 64<<10, 10)
	if _, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, streamer.Callbacks()); err != nil {
		t.Fatal(err)
	}
	w.RunUntil(15 * sim.Second)
	if streamer.Sent() != 10 {
		t.Fatalf("sent %d blocks", streamer.Sent())
	}
	if len(bsink.CompletedAt) != 10 {
		t.Fatalf("completed %d blocks", len(bsink.CompletedAt))
	}
	// On a clean 50 Mbps path each 64 KB block lands well within 100 ms
	// of its send time (paper: "delivered within 100 msec").
	for k, at := range bsink.CompletedAt {
		sent := streamer.StartedAt.Add(time.Duration(k) * time.Second)
		delay := time.Duration(at - sent)
		if delay <= 0 || delay > 100*time.Millisecond {
			t.Fatalf("block %d delay = %v", k, delay)
		}
	}
}

func TestReqRespServer(t *testing.T) {
	w, n, cep, sep := rig(t, 3)
	srv := NewReqRespServer(400, 512<<10)
	sep.Listen(80, srv.Accept)
	var got uint64
	var closed bool
	conn, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{
		OnEstablished: func(c *mptcp.Connection) { c.Write(400) },
		OnData:        func(_ *mptcp.Connection, total uint64) { got = total },
		OnPeerClose:   func(c *mptcp.Connection) { c.Close() },
		OnClosed:      func(*mptcp.Connection) { closed = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	if got != 512<<10 {
		t.Fatalf("response bytes = %d", got)
	}
	if srv.Served != 1 {
		t.Fatalf("served = %d", srv.Served)
	}
	if !closed || !conn.Closed() {
		t.Fatal("HTTP/1.0-style close did not complete")
	}
}

func TestSinkWithoutExpectation(t *testing.T) {
	w, n, cep, sep := rig(t, 4)
	sink := NewSink(n.Server.Clock(), 500, nil) // no completion callback
	sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
	src := NewSource(n.Client.Clock(), 500, false)
	cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, src.Callbacks())
	w.Run()
	if !sink.Done || sink.Received != 500 {
		t.Fatalf("sink state: %+v", sink)
	}
}
