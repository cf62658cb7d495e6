// Package app provides the simulated applications the paper's experiments
// run over Multipath TCP: bulk file transfers (§4.4), the fixed-rate block
// streamer (§4.3), and an HTTP/1.0-like request/response server (§4.5).
// Applications interact with connections purely through the public
// mptcp.ConnCallbacks API plus Write/Close — exactly the socket-level view
// a real application has.
package app

import (
	"time"

	"repro/internal/mptcp"
	"repro/internal/sim"
)

// Source writes a fixed number of bytes as soon as the connection
// establishes, then (optionally) closes its end.
type Source struct {
	Size          int
	CloseWhenDone bool
	StartedAt     sim.Time
	clock         *sim.Clock
}

// NewSource builds a bulk sender.
func NewSource(clock *sim.Clock, size int, closeWhenDone bool) *Source {
	return &Source{Size: size, CloseWhenDone: closeWhenDone, clock: clock}
}

// Callbacks wires the source into a connection.
func (s *Source) Callbacks() mptcp.ConnCallbacks {
	return mptcp.ConnCallbacks{
		OnEstablished: func(c *mptcp.Connection) {
			s.StartedAt = s.clock.Now()
			c.Write(s.Size)
			if s.CloseWhenDone {
				c.Close()
			}
		},
	}
}

// Sink counts received bytes and records when an expected total arrived.
type Sink struct {
	Expected    uint64
	Received    uint64
	CompletedAt sim.Time
	Done        bool
	OnComplete  func()
	clock       *sim.Clock
}

// NewSink builds a receiver expecting the given byte count.
func NewSink(clock *sim.Clock, expected uint64, onComplete func()) *Sink {
	return &Sink{Expected: expected, OnComplete: onComplete, clock: clock}
}

// Callbacks wires the sink into a connection (typically installed in the
// listener's accept function).
func (s *Sink) Callbacks() mptcp.ConnCallbacks {
	return mptcp.ConnCallbacks{
		OnData: func(c *mptcp.Connection, total uint64) {
			s.Received = total
			if !s.Done && total >= s.Expected {
				s.Done = true
				s.CompletedAt = s.clock.Now()
				if s.OnComplete != nil {
					s.OnComplete()
				}
			}
		},
		OnPeerClose: func(c *mptcp.Connection) { c.Close() },
	}
}

// BlockStreamer is the §4.3 application: it writes one BlockSize block per
// Period, starting at connection establishment, for NumBlocks blocks.
type BlockStreamer struct {
	Period    time.Duration
	BlockSize int
	NumBlocks int
	StartedAt sim.Time

	clock  *sim.Clock
	sent   int
	ticker *sim.Ticker
}

// NewBlockStreamer builds the paper's streaming app (64 KB per second).
func NewBlockStreamer(clock *sim.Clock, period time.Duration, blockSize, numBlocks int) *BlockStreamer {
	return &BlockStreamer{Period: period, BlockSize: blockSize, NumBlocks: numBlocks, clock: clock}
}

// Callbacks wires the streamer into a connection.
func (b *BlockStreamer) Callbacks() mptcp.ConnCallbacks {
	return mptcp.ConnCallbacks{
		OnEstablished: func(c *mptcp.Connection) {
			b.StartedAt = b.clock.Now()
			// First block goes out immediately; the rest on the ticker.
			c.Write(b.BlockSize)
			b.sent = 1
			if b.NumBlocks <= 1 {
				return
			}
			b.ticker = sim.NewTicker(b.clock, b.Period, "app.block", func() {
				if b.sent >= b.NumBlocks || c.Closed() {
					b.ticker.Stop()
					return
				}
				c.Write(b.BlockSize)
				b.sent++
			})
		},
	}
}

// Sent reports how many blocks have been written so far.
func (b *BlockStreamer) Sent() int { return b.sent }

// BlockSink measures per-block delivery times at the receiver: block k
// (0-based) is complete when BlockSize*(k+1) contiguous bytes are in.
type BlockSink struct {
	BlockSize   int
	CompletedAt []sim.Time
	clock       *sim.Clock
}

// NewBlockSink builds the receiver-side block clock.
func NewBlockSink(clock *sim.Clock, blockSize int) *BlockSink {
	return &BlockSink{BlockSize: blockSize, clock: clock}
}

// Callbacks wires the sink into a connection.
func (b *BlockSink) Callbacks() mptcp.ConnCallbacks {
	return mptcp.ConnCallbacks{
		OnData: func(c *mptcp.Connection, total uint64) {
			for uint64(len(b.CompletedAt)+1)*uint64(b.BlockSize) <= total {
				b.CompletedAt = append(b.CompletedAt, b.clock.Now())
			}
		},
	}
}

// ReqRespServer is the §4.5 server: for each accepted connection it waits
// for ReqSize request bytes, writes RespSize response bytes, and closes —
// an HTTP/1.0-like exchange (lighttpd serving a 512 KB file in the paper).
type ReqRespServer struct {
	ReqSize  uint64
	RespSize int
	Served   int
}

// NewReqRespServer builds the server.
func NewReqRespServer(reqSize uint64, respSize int) *ReqRespServer {
	return &ReqRespServer{ReqSize: reqSize, RespSize: respSize}
}

// Accept is the listener callback.
func (s *ReqRespServer) Accept(c *mptcp.Connection) {
	responded := false
	c.SetCallbacks(mptcp.ConnCallbacks{
		OnData: func(c *mptcp.Connection, total uint64) {
			if !responded && total >= s.ReqSize {
				responded = true
				s.Served++
				c.Write(s.RespSize)
				c.Close()
			}
		},
		OnPeerClose: func(c *mptcp.Connection) {
			if !responded {
				c.Close()
			}
		},
	})
}
