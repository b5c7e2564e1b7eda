package httptransport_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
)

func newFabric(t *testing.T) *httptransport.Fabric {
	t.Helper()
	f, err := httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// echoHandler returns the payload and method it was called with.
func echoHandler(method string, payload any) (any, error) {
	if req, ok := payload.(server.JoinRequest); ok {
		return server.JoinResponse{Accepted: true, SessionID: uint64(req.ClientID), Version: 7}, nil
	}
	if s, ok := payload.(string); ok {
		return "echo:" + method + ":" + s, nil
	}
	return payload, nil
}

// forEachCodecConfig runs body once per value a deployment may have set in
// Options.Codec. "bin" — the one wire's own name — builds a fabric and runs
// body on it; the retired "gob" and "json" must be refused by New, so a
// stale configuration fails loudly instead of silently switching wires.
func forEachCodecConfig(t *testing.T, body func(t *testing.T, f *httptransport.Fabric)) {
	for _, codec := range []string{"gob", "bin", "json"} {
		t.Run(codec, func(t *testing.T) {
			f, err := httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Seed: 1, Codec: codec})
			if codec != "bin" {
				if err == nil {
					_ = f.Close()
					t.Fatalf("retired codec %q accepted", codec)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			body(t, f)
		})
	}
}

func TestCallRoundTripBothCodecs(t *testing.T) {
	forEachCodecConfig(t, func(t *testing.T, f *httptransport.Fabric) {
		f.Register("node-a", echoHandler)

		// Struct payload and struct response.
		resp, err := f.Call("tester", "node-a", "join", server.JoinRequest{TaskID: "t", ClientID: 42})
		if err != nil {
			t.Fatal(err)
		}
		jr, ok := resp.(server.JoinResponse)
		if !ok {
			t.Fatalf("response type %T, want server.JoinResponse", resp)
		}
		if !jr.Accepted || jr.SessionID != 42 || jr.Version != 7 {
			t.Fatalf("round trip mangled response: %+v", jr)
		}

		// String payload (register-aggregator / task-info style).
		resp, err = f.Call("tester", "node-a", "m", "hello")
		if err != nil {
			t.Fatal(err)
		}
		if resp != "echo:m:hello" {
			t.Fatalf("string round trip = %v", resp)
		}

		// Nil payload (map-request style).
		resp, err = f.Call("tester", "node-a", "nilcall", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp != nil {
			t.Fatalf("nil payload round trip = %v, want nil", resp)
		}

		// A cold message, which crosses in bin's in-frame gob envelope.
		resp, err = f.Call("tester", "node-a", "agg-report", server.AggDirective{DropTasks: []string{"a", "b"}})
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := resp.(server.AggDirective); !ok || len(d.DropTasks) != 2 || d.DropTasks[1] != "b" {
			t.Fatalf("gob-enveloped round trip = %#v", resp)
		}
	})
}

func TestNestedAnyPayloadCrossesWire(t *testing.T) {
	// RouteRequest carries an interface-typed payload — the hardest message
	// for a wire format. The inner concrete type must survive.
	forEachCodecConfig(t, func(t *testing.T, f *httptransport.Fabric) {
		f.Register("sel", func(method string, payload any) (any, error) {
			rr := payload.(server.RouteRequest)
			chunk, ok := rr.Payload.(server.UploadChunk)
			if !ok {
				t.Errorf("inner payload type %T, want server.UploadChunk", rr.Payload)
				return nil, errors.New("bad inner type")
			}
			return server.UploadResponse{OK: chunk.Done, Reason: rr.Method}, nil
		})
		resp, err := f.Call("client", "sel", "route", server.RouteRequest{
			TaskID: "t", Method: "upload-chunk",
			Payload: server.UploadChunk{TaskID: "t", SessionID: 3, Data: []float32{1, 2}, Done: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ur := resp.(server.UploadResponse)
		if !ur.OK || ur.Reason != "upload-chunk" {
			t.Fatalf("nested round trip = %+v", ur)
		}
	})
}

func TestAppErrorCrossesWire(t *testing.T) {
	f := newFabric(t)
	f.Register("node-a", func(string, any) (any, error) {
		return nil, errors.New("task \"ghost\" not assigned here")
	})
	_, err := f.Call("tester", "node-a", "m", nil)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("app error lost: %v", err)
	}
	// App errors must NOT map onto transport sentinels.
	for _, sentinel := range []error{transport.ErrCrashed, transport.ErrDropped,
		transport.ErrPartitioned, transport.ErrUnknownNode} {
		if errors.Is(err, sentinel) {
			t.Fatalf("app error classified as %v", sentinel)
		}
	}
}

// TestFaultParity is the ErrDropped/ErrCrashed/ErrPartitioned/ErrUnknownNode
// contract: every fault the in-memory Network can inject maps onto the same
// sentinel error over HTTP, so failover logic behaves identically.
func TestFaultParity(t *testing.T) {
	f := newFabric(t)
	f.Register("a", echoHandler)
	f.Register("b", echoHandler)

	t.Run("unknown node", func(t *testing.T) {
		_, err := f.Call("a", "ghost", "m", nil)
		if !errors.Is(err, transport.ErrUnknownNode) {
			t.Fatalf("err = %v, want ErrUnknownNode", err)
		}
	})

	t.Run("crashed callee", func(t *testing.T) {
		f.Crash("b")
		if _, err := f.Call("a", "b", "m", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed", err)
		}
	})

	t.Run("crashed caller", func(t *testing.T) {
		if _, err := f.Call("b", "a", "m", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed (sender)", err)
		}
		f.Register("b", echoHandler) // restart clears the crash
		if _, err := f.Call("b", "a", "m", nil); err != nil {
			t.Fatalf("restarted node still crashed: %v", err)
		}
	})

	t.Run("partition and heal", func(t *testing.T) {
		f.Partition("a", "b")
		if _, err := f.Call("a", "b", "m", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("err = %v, want ErrPartitioned", err)
		}
		if _, err := f.Call("b", "a", "m", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("reverse direction err = %v, want ErrPartitioned", err)
		}
		f.Heal("a", "b")
		if _, err := f.Call("a", "b", "m", nil); err != nil {
			t.Fatalf("healed partition still cut: %v", err)
		}
	})

	t.Run("probabilistic drop", func(t *testing.T) {
		f.SetLoss(0.5)
		defer f.SetLoss(0)
		dropped := 0
		for i := 0; i < 50; i++ {
			if _, err := f.Call("a", "b", "m", nil); err != nil {
				if !errors.Is(err, transport.ErrDropped) {
					t.Fatalf("err = %v, want ErrDropped", err)
				}
				dropped++
			}
		}
		if dropped == 0 || dropped == 50 {
			t.Fatalf("dropped %d/50 calls at p=0.5", dropped)
		}
	})

	t.Run("dead process maps to ErrCrashed", func(t *testing.T) {
		peer := newFabric(t)
		peer.Register("remote", echoHandler)
		f.AddRoute("remote", peer.BaseURL())
		if _, err := f.Call("a", "remote", "m", nil); err != nil {
			t.Fatalf("live peer call failed: %v", err)
		}
		// Kill the peer process's listener: connection-level failures are
		// the networked form of a crash.
		_ = peer.Close()
		if _, err := f.Call("a", "remote", "m", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed after peer death", err)
		}
	})
}

func TestLatencyInjection(t *testing.T) {
	f := newFabric(t)
	f.Register("a", echoHandler)
	f.SetLatency(30 * time.Millisecond)
	start := time.Now()
	if _, err := f.Call("x", "a", "m", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("call took %v, want >= 30ms injected latency", d)
	}
}

func TestAdvertiseAndDiscovery(t *testing.T) {
	coordSide := newFabric(t)
	coordSide.Register("coordinator", echoHandler)
	coordSide.Register("sel-0", echoHandler)

	agentSide := newFabric(t)
	agentSide.Register("agg-remote", func(method string, payload any) (any, error) {
		return "agg says hi", nil
	})

	// The agent announces itself and learns the coordinator's nodes.
	peerNodes, err := agentSide.Advertise(coordSide.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if len(peerNodes) != 2 {
		t.Fatalf("peer nodes = %v", peerNodes)
	}
	// Agent -> coordinator (learned via Advertise response).
	if _, err := agentSide.Call("agg-remote", "coordinator", "m", "x"); err != nil {
		t.Fatalf("agent -> coordinator: %v", err)
	}
	// Coordinator -> agent (learned via the advertisement).
	resp, err := coordSide.Call("coordinator", "agg-remote", "assign-task", nil)
	if err != nil {
		t.Fatalf("coordinator -> agent: %v", err)
	}
	if resp != "agg says hi" {
		t.Fatalf("cross-process response = %v", resp)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	f := newFabric(t)
	f.Register("a", echoHandler)
	before := f.Stats()
	if _, err := f.Call("x", "a", "m", "payload"); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Calls != before.Calls+1 || after.BytesSent <= before.BytesSent ||
		after.BytesReceived <= before.BytesReceived {
		t.Fatalf("stats did not advance: %+v -> %+v", before, after)
	}
}

// TestRouteGossipIsTransitive: an agent advertises to the coordinator's
// fabric; a selector that only Discovers the coordinator must learn the
// agent's route from the gossiped document and reach it directly — no
// full-mesh advertisement.
func TestRouteGossipIsTransitive(t *testing.T) {
	coordSide := newFabric(t)
	coordSide.Register("coordinator", echoHandler)

	agentSide := newFabric(t)
	agentSide.Register("agg-g", func(method string, payload any) (any, error) {
		return "agg-g here", nil
	})
	if _, err := agentSide.Advertise(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}

	selSide := newFabric(t)
	selSide.Register("sel-g", echoHandler)
	if _, err := selSide.Discover(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}
	if got := selSide.Routes()["agg-g"]; got != agentSide.BaseURL() {
		t.Fatalf("gossiped route for agg-g = %q, want %q", got, agentSide.BaseURL())
	}
	out, err := selSide.Call("sel-g", "agg-g", "join", nil)
	if err != nil {
		t.Fatalf("selector -> gossiped agent: %v", err)
	}
	if out != "agg-g here" {
		t.Fatalf("gossiped-route response = %v", out)
	}
}

// TestDiscoverRecordsCapabilities covers the loadtest entry point: Discover
// must install routes and the peer's capability document in one round trip.
func TestDiscoverRecordsCapabilities(t *testing.T) {
	serverFab := newFabric(t)
	serverFab.Register("sel-0", echoHandler)

	f := newFabric(t)
	nodes, err := f.Discover(serverFab.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0] != "sel-0" {
		t.Fatalf("Discover nodes = %v", nodes)
	}
	if caps := f.PeerCapabilities(serverFab.BaseURL()); !caps.AckElide {
		t.Fatalf("Discover recorded capabilities %+v, want ack elision", caps)
	}
	if resp, err := f.Call("client", "sel-0", "m", "hi"); err != nil || resp != "echo:m:hi" {
		t.Fatalf("call through discovered route: %v %v", resp, err)
	}
}
