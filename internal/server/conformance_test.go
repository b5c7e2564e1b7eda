package server_test

// The transport conformance suite: every integration, reconfiguration,
// multi-tenant, and chunk-reassembly test in this package runs once per
// backend — the deterministic in-memory transport.Network, HTTP streaming
// sessions via transport/httptransport, and raw TCP via
// transport/tcptransport — so every networked backend inherits the full
// Appendix E.3/E.4 behaviour matrix (failover, recovery, routing, mode
// switches) already proven on the in-memory fabric. Test bodies are shared
// verbatim; only the fabric construction is parameterized.

import (
	"testing"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

// testFabric is what the suite needs from a backend: the RPC surface the
// components use plus the fault-injection surface the failure drills use.
type testFabric interface {
	transport.Fabric
	transport.FaultInjector
}

// fabricFactory builds one backend under test. routing selects the selector
// mode the crossing chose for this run: false constructs plain forwarding
// selectors, true constructs routing-tier selectors (pooled sessions,
// list-agents discovery, rendezvous route hints) — see newTestSelector.
type fabricFactory struct {
	name    string
	routing bool
	// elides marks backends configured to send no-ack upload chunks over
	// negotiated streaming sessions (Options.AckElide); the degradation
	// test asserts elision happens exactly on these and nowhere else.
	elides bool
	make   func(t *testing.T, seed int64) testFabric
}

var fabricFactories = []fabricFactory{
	{name: "inmem", make: func(t *testing.T, seed int64) testFabric {
		return transport.NewNetwork(seed)
	}},
	// The HTTP backend: every RPC of every conformance test rides a
	// pooled /papaya/v2/stream connection as length-prefixed bin frames,
	// proving the streaming path preserves the full failover/reconfigure/
	// multitenant behaviour matrix — including faults injected
	// mid-stream.
	{name: "http-stream", elides: true, make: func(t *testing.T, seed int64) testFabric {
		return newHTTPCell(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed, AckElide: true})
	}},
	// The raw-TCP fabric: no HTTP anywhere — pipelined wire frames over
	// bare connections, with the same discovery/advertise and
	// fault-injection semantics.
	{name: "tcp", elides: true, make: func(t *testing.T, seed int64) testFabric {
		return newTCPCell(t, tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed, AckElide: true})
	}},
	// The remaining cells keep their historical names, which once selected
	// gob/JSON frames, per-call POSTs or DEFLATE. Those paths are gone; each
	// name now pins one configuration the one wire still accepts, so the
	// matrix proves that configuration preserves the full behaviour:
	//
	//   - http: zero-value options, so every call keeps its per-frame ack.
	//   - http-bin: the deprecated Codec set to its one accepted value.
	//   - http-deflate: the deprecated, ignored Stream flag.
	//   - http-deflate-bin, tcp-bin-deflate: exactly the option sets the
	//     benchmark harness passes, deprecated fields included.
	{name: "http", make: func(t *testing.T, seed int64) testFabric {
		return newHTTPCell(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
	}},
	{name: "http-bin", make: func(t *testing.T, seed int64) testFabric {
		return newHTTPCell(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Codec: "bin"})
	}},
	{name: "http-deflate", make: func(t *testing.T, seed int64) testFabric {
		return newHTTPCell(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Stream: true})
	}},
	{name: "http-deflate-bin", elides: true, make: func(t *testing.T, seed int64) testFabric {
		return newHTTPCell(t, httptransport.Options{
			Listen: "127.0.0.1:0", Seed: seed, Codec: "bin", Stream: true, AckElide: true,
		})
	}},
	{name: "tcp-bin-deflate", elides: true, make: func(t *testing.T, seed int64) testFabric {
		return newTCPCell(t, tcptransport.Options{
			Listen: "127.0.0.1:0", Seed: seed, Codec: "bin", AckElide: true,
		})
	}},
}

func newHTTPCell(t *testing.T, o httptransport.Options) testFabric {
	t.Helper()
	f, err := httptransport.New(o)
	if err != nil {
		t.Fatalf("starting http fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func newTCPCell(t *testing.T, o tcptransport.Options) testFabric {
	t.Helper()
	f, err := tcptransport.New(o)
	if err != nil {
		t.Fatalf("starting tcp fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// forEachFabric runs a conformance test body once per backend per selector
// mode: direct (one fabric call per forwarded request, the classic
// selector) and via-selector (the routing tier — pooled streamed sessions,
// live-aggregator discovery, rendezvous route hints). The crossing proves
// the routing tier is behaviour-compatible on every backend: every cell
// inherits the full failover/recovery/reconfigure/multitenant matrix.
func forEachFabric(t *testing.T, run func(t *testing.T, fx fabricFactory)) {
	modes := []struct {
		name    string
		routing bool
	}{
		{name: "direct", routing: false},
		{name: "via-selector", routing: true},
	}
	for _, base := range fabricFactories {
		for _, mode := range modes {
			fx := base
			fx.routing = mode.routing
			t.Run(base.name+"/"+mode.name, func(t *testing.T) { run(t, fx) })
		}
	}
}

// newTestSelector constructs a selector in the mode the conformance
// crossing selected for fx; every selector a conformance test builds must
// go through it so the via-selector half of the matrix actually exercises
// the routing tier.
func newTestSelector(name string, net transport.Fabric, coordinator string, timings server.Timings, fx fabricFactory) *server.Selector {
	return server.NewSelectorWith(name, net, coordinator, timings,
		server.SelectorOptions{Routing: fx.routing})
}
