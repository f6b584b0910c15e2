package netsim

import "zmapgo/internal/core"

// netsim declares its own copy of the engine's transport contract
// because the engine's tests import netsim. Mutual assignability pins
// the two declarations to the same method set, so they cannot drift.
var (
	_ core.Transport = Transport(nil)
	_ Transport      = core.Transport(nil)

	_ core.Transport = (*Link)(nil)
	_ core.Transport = (*FaultyTransport)(nil)
	_ core.Transport = (*RecvFaultTransport)(nil)
)
