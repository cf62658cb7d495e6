package tcp

import (
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

// StubState pins the scheduler-visible state of a stub subflow.
type StubState struct {
	Tuple       seg.FourTuple
	Backup      bool
	Established bool
	SRTT        time.Duration // 0 leaves the estimator sample-free
	Window      int           // AvailableCwnd result while established
}

// NewStubSubflow returns a detached subflow whose scheduler-visible
// accessors (Established, Backup, SRTT, AvailableCwnd) report exactly st
// and never change. It is wired to a throwaway one-shard world and no
// owner, so only those read-only accessors are meaningful — scheduler
// unit tests use it to pin subflow states that are awkward to reach
// through a real handshake (see internal/mptcp's scheduler tests).
func NewStubSubflow(st StubState) *Subflow {
	sf := NewSubflow(sim.NewWorld(0, 1).HostClock(0, "stub"), Config{
		// A congestion window far above any test's peer window, so
		// st.Window is the binding term of AvailableCwnd.
		InitialWindow: 1 << 20,
	}, st.Tuple, func(*seg.Segment) {}, nil)
	if st.Established {
		sf.state = StateEstablished
	}
	sf.backup = st.Backup
	sf.peerWnd = uint32(st.Window)
	if st.SRTT > 0 {
		sf.rtt.Sample(st.SRTT) // the first sample sets SRTT exactly
	}
	return sf
}
