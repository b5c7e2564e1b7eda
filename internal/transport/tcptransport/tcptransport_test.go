package tcptransport

// White-box tests for the raw-TCP fabric: basic RPC parity, discovery and
// advertisement, fault injection semantics, session lifecycle, and the
// allocation gate on the pipelined send path (the whole point of the
// backend is removing per-call overhead, so the gate keeps it removed).

import (
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/streamcore"
)

func newTestFabric(t *testing.T, opts Options) *Fabric {
	t.Helper()
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	f, err := New(opts)
	if err != nil {
		t.Fatalf("starting tcp fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// TestCallRoundTrip drives a registered-message call through the loopback
// listener once per value a deployment may have set in Options.Codec:
// "bin", the one wire's own name, round-trips; the retired "gob" and
// "json" are refused by New, so stale configurations fail loudly.
func TestCallRoundTrip(t *testing.T) {
	for _, codec := range []string{"gob", "bin", "json"} {
		t.Run(codec, func(t *testing.T) {
			if codec != "bin" {
				if f, err := New(Options{Listen: "127.0.0.1:0", Codec: codec}); err == nil {
					_ = f.Close()
					t.Fatalf("retired codec %q accepted", codec)
				}
				return
			}
			f := newTestFabric(t, Options{Codec: codec})
			f.Register("agg", func(method string, payload any) (any, error) {
				req := payload.(server.JoinRequest)
				return server.JoinResponse{Accepted: true, SessionID: uint64(req.ClientID) + 1}, nil
			})
			out, err := f.Call("client-7", "agg", "join", server.JoinRequest{TaskID: "t", ClientID: 7})
			if err != nil {
				t.Fatal(err)
			}
			if resp := out.(server.JoinResponse); !resp.Accepted || resp.SessionID != 8 {
				t.Fatalf("response = %+v", resp)
			}
		})
	}
}

// TestCompressedFrames carries a model-sized chunk packed by the DEFLATE
// upload codec ("flate") — the compression that survives on the wire now
// that frames themselves are never deflated — and checks the far side
// decodes it bit for bit.
func TestCompressedFrames(t *testing.T) {
	codec, err := compress.ByName("flate")
	if err != nil {
		t.Fatal(err)
	}
	delta := make([]float32, 4096)
	for i := range delta {
		delta[i] = float32(i%7) * 0.125
	}
	packed, err := compress.CompressFloats(codec, delta)
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFabric(t, Options{})
	f.Register("agg", func(method string, payload any) (any, error) {
		c := payload.(server.UploadChunk)
		got, err := compress.DecompressFloats(c.Packed)
		if err != nil {
			return nil, err
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(delta[i]) {
				return server.UploadResponse{Reason: "mismatch"}, nil
			}
		}
		return server.UploadResponse{OK: len(got) == len(delta)}, nil
	})
	out, err := f.Call("c", "agg", "upload-chunk", server.UploadChunk{
		TaskID: "t", SessionID: 3, Packed: packed, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur := out.(server.UploadResponse); !ur.OK {
		t.Fatalf("packed chunk crossed mangled: %+v", ur)
	}
}

// TestModelSizedFrames carries a model-sized download response.
func TestModelSizedFrames(t *testing.T) {
	f := newTestFabric(t, Options{})
	f.Register("agg", func(method string, payload any) (any, error) {
		dl := payload.(server.DownloadRequest)
		params := make([]float32, 4096)
		return server.DownloadResponse{Params: params, Version: int(dl.SessionID)}, nil
	})
	out, err := f.Call("c", "agg", "download", server.DownloadRequest{TaskID: "t", SessionID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp := out.(server.DownloadResponse); resp.Version != 3 || len(resp.Params) != 4096 {
		t.Fatalf("response = %d params v%d", len(resp.Params), resp.Version)
	}
}

// TestDiscoveryAndAdvertise wires two fabrics together through the
// reserved _fabric node and checks routes and capabilities land.
func TestDiscoveryAndAdvertise(t *testing.T) {
	a := newTestFabric(t, Options{})
	b := newTestFabric(t, Options{})
	a.Register("node-a", func(method string, payload any) (any, error) { return "from-a", nil })
	b.Register("node-b", func(method string, payload any) (any, error) { return "from-b", nil })

	nodes, err := a.Discover(b.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0] != "node-b" {
		t.Fatalf("discovered %v", nodes)
	}
	if caps := a.PeerCapabilities(b.BaseURL()); !caps.AckElide {
		t.Fatalf("peer capabilities = %+v", caps)
	}
	if out, err := a.Call("tester", "node-b", "ping", nil); err != nil || out != "from-b" {
		t.Fatalf("cross-fabric call: %v %v", out, err)
	}

	// Advertise back: b learns a's nodes.
	if _, err := a.Advertise(b.BaseURL()); err != nil {
		t.Fatal(err)
	}
	if out, err := b.Call("tester", "node-a", "ping", nil); err != nil || out != "from-a" {
		t.Fatalf("advertised route call: %v %v", out, err)
	}
}

// TestFaultParity checks the injected-fault semantics match the in-memory
// Network: unknown node, crash (callee and caller), partition/heal, and a
// genuinely dead peer process mapping to ErrCrashed.
func TestFaultParity(t *testing.T) {
	f := newTestFabric(t, Options{})
	f.Register("node", func(method string, payload any) (any, error) { return true, nil })

	if _, err := f.Call("c", "ghost", "ping", nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("unknown node error = %v", err)
	}
	f.Crash("node")
	if _, err := f.Call("c", "node", "ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("crashed callee error = %v", err)
	}
	f.Register("node", func(method string, payload any) (any, error) { return true, nil })
	if _, err := f.Call("c", "node", "ping", nil); err != nil {
		t.Fatalf("restarted callee: %v", err)
	}
	f.Crash("c")
	if _, err := f.Call("c", "node", "ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("crashed caller error = %v", err)
	}
	f.Register("c", func(method string, payload any) (any, error) { return true, nil })
	f.Partition("c", "node")
	if _, err := f.Call("c", "node", "ping", nil); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("partitioned error = %v", err)
	}
	f.Heal("c", "node")
	if _, err := f.Call("c", "node", "ping", nil); err != nil {
		t.Fatalf("healed call: %v", err)
	}

	// A peer whose process is gone: the route remains but nothing listens.
	dead := newTestFabric(t, Options{})
	dead.Register("gone", func(method string, payload any) (any, error) { return true, nil })
	if _, err := f.Discover(dead.BaseURL()); err != nil {
		t.Fatal(err)
	}
	_ = dead.Close()
	if _, err := f.Call("c", "gone", "ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("dead process error = %v", err)
	}
}

// TestLossInjection checks SetLoss produces ErrDropped without touching
// the server side.
func TestLossInjection(t *testing.T) {
	f := newTestFabric(t, Options{Seed: 42})
	// The handler runs on the serving goroutine; the test's read at the end
	// is ordered only by socket I/O, which the race detector cannot see.
	var served atomic.Int64
	f.Register("node", func(method string, payload any) (any, error) {
		served.Add(1)
		return true, nil
	})
	f.SetLoss(0.5)
	drops := 0
	for i := 0; i < 40; i++ {
		if _, err := f.Call("c", "node", "ping", nil); errors.Is(err, transport.ErrDropped) {
			drops++
		} else if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if drops == 0 || drops == 40 {
		t.Fatalf("drops = %d/40 at p=0.5", drops)
	}
	if served.Load() != int64(40-drops) {
		t.Fatalf("served %d, want %d (drops must not reach the handler)", served.Load(), 40-drops)
	}
}

// TestOpenSessionPipelines runs a session's worth of calls over one
// dedicated connection.
func TestOpenSessionPipelines(t *testing.T) {
	f := newTestFabric(t, Options{})
	var seen atomic.Int64
	f.Register("agg", func(method string, payload any) (any, error) {
		seen.Add(1)
		return server.UploadResponse{OK: true}, nil
	})
	sess, err := f.OpenSession("client-1", "agg")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		out, err := sess.Call("upload-chunk", server.UploadChunk{
			TaskID: "t", SessionID: 1, Offset: i * 4, Data: []float32{1, 2, 3, 4},
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !out.(server.UploadResponse).OK {
			t.Fatalf("chunk %d rejected", i)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Call("upload-chunk", nil); err == nil {
		t.Fatal("call after close succeeded")
	}
	if seen.Load() != 32 {
		t.Fatalf("handler saw %d chunks", seen.Load())
	}
}

// TestReservedNodeNameRejected keeps _fabric off-limits to handlers.
func TestReservedNodeNameRejected(t *testing.T) {
	f := newTestFabric(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("registering the reserved node name did not panic")
		}
	}()
	f.Register(fabricNode, func(method string, payload any) (any, error) { return nil, nil })
}

// discardConn swallows writes and never delivers reads — a streamcore.Conn
// sink for measuring the send path without a live peer.
type discardConn struct{}

func (discardConn) ReadFrame(int) (byte, []byte, error) {
	return 0, nil, errors.New("discardConn: no reads")
}
func (discardConn) WriteFrames(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}
func (discardConn) SetDeadline(time.Time) error { return nil }
func (discardConn) Close() error                { return nil }

// TestPipelinedChunkSendAllocs is the alloc gate on the streaming hot
// path: sending one pipelined no-ack upload chunk
// (encode the frame into pooled scratch, length-prefix it, coalesce and
// write it) must stay <= 2 heap allocations — the same discipline the wire
// benches enforce on the decode side. Regressions here mean the engine's
// per-session scratch reuse broke.
func TestPipelinedChunkSendAllocs(t *testing.T) {
	s := streamcore.NewSession(discardConn{}, streamcore.Config{
		Node:     "agg",
		Prefix:   "tcptransport",
		MaxFrame: maxFrameBytes,
		Counters: &streamcore.Counters{},
	})
	chunk := server.UploadChunk{
		TaskID:    "bench-task",
		SessionID: 9,
		Offset:    4096,
		Data:      make([]float32, 1024),
	}
	var payload any = chunk // box once, outside the measured loop
	// Warm the scratch buffers and frame pool.
	if err := s.SendNoAck("client-1", "upload-chunk", payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.SendNoAck("client-1", "upload-chunk", payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("pipelined chunk send costs %.1f allocs, want <= 2", allocs)
	}
}

// TestCloseDoesNotLeakGoroutines opens sessions and fabrics, closes them,
// and checks the goroutine count settles.
func TestCloseDoesNotLeakGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		f, err := New(Options{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		f.Register("node", func(method string, payload any) (any, error) { return true, nil })
		for j := 0; j < 4; j++ {
			sess, err := f.OpenSession("c", "node")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Call("ping", nil); err != nil {
				t.Fatal(err)
			}
			sess.Close()
		}
		if _, err := f.Call("c", "node", "ping", nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d at start, %d after close\n%s",
		base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestRouteGossipIsTransitive mirrors the HTTP fabric's gossip test: a
// selector fabric that only Discovers the coordinator's fabric learns the
// routes of everyone who advertised there.
func TestRouteGossipIsTransitive(t *testing.T) {
	coordSide := newTestFabric(t, Options{})
	coordSide.Register("coordinator", func(method string, payload any) (any, error) { return true, nil })

	agentSide := newTestFabric(t, Options{})
	agentSide.Register("agg-g", func(method string, payload any) (any, error) { return "agg-g here", nil })
	if _, err := agentSide.Advertise(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}

	selSide := newTestFabric(t, Options{})
	if _, err := selSide.Discover(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}
	if got, want := selSide.Routes()["agg-g"], strings.TrimPrefix(agentSide.BaseURL(), Scheme); got != want {
		t.Fatalf("gossiped route for agg-g = %q, want %q", got, want)
	}
	out, err := selSide.Call("sel-g", "agg-g", "join", nil)
	if err != nil {
		t.Fatalf("selector -> gossiped agent: %v", err)
	}
	if out != "agg-g here" {
		t.Fatalf("gossiped-route response = %v", out)
	}
}

// TestAckElideEndToEnd: with Options.AckElide toward a negotiated peer
// (loopback fabrics always negotiate), non-final chunk sends ride the
// stream without acknowledgements, the serving side invokes every one of
// them, and only the final acked call crosses with a reply. The shared
// counters prove acks were actually elided and the coalesced flush batched
// the queued frames.
func TestAckElideEndToEnd(t *testing.T) {
	f := newTestFabric(t, Options{AckElide: true})
	// The handler runs on the serving goroutine; the only ordering toward
	// the test's final read is socket I/O, which the race detector cannot
	// see, so the record needs its own lock.
	var mu sync.Mutex
	var methods []string
	f.Register("agg", func(method string, payload any) (any, error) {
		mu.Lock()
		methods = append(methods, method)
		mu.Unlock()
		return server.UploadResponse{OK: true}, nil
	})
	sess, err := f.OpenSession("client-1", "agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	es, ok := sess.(transport.ElidingSession)
	if !ok || !es.ElidesAcks() {
		t.Fatalf("loopback session does not elide (ok=%v)", ok)
	}
	for i := 0; i < 5; i++ {
		if err := es.SendNoAck("chunk", server.FailRequest{TaskID: "t", SessionID: uint64(i)}); err != nil {
			t.Fatalf("no-ack send %d: %v", i, err)
		}
	}
	out, err := es.Call("done", server.FailRequest{TaskID: "t", SessionID: 99})
	if err != nil {
		t.Fatalf("final acked call: %v", err)
	}
	if ur := out.(server.UploadResponse); !ur.OK {
		t.Fatalf("final response = %+v", ur)
	}
	mu.Lock()
	if len(methods) != 6 || methods[0] != "chunk" || methods[5] != "done" {
		t.Fatalf("handler saw %v", methods)
	}
	mu.Unlock()
	st := f.Stats()
	if st.AcksElided < 5 {
		t.Fatalf("AcksElided = %d, want >= 5", st.AcksElided)
	}
	if st.FramesCoalesced == 0 {
		t.Fatal("queued no-ack frames never coalesced into a batched write")
	}
}

// TestAckElideHeldFailureSurfacesOnNextCall: the no-ack serving protocol —
// the first non-suppressible response to an elided frame is held, later
// elided frames are drained without dispatch, and the next acknowledged
// call is answered with the held response instead of being invoked. This
// is what lets an elided chunk train fail loudly on its Done chunk.
func TestAckElideHeldFailureSurfacesOnNextCall(t *testing.T) {
	f := newTestFabric(t, Options{AckElide: true})
	var mu sync.Mutex
	var methods []string
	f.Register("agg", func(method string, payload any) (any, error) {
		mu.Lock()
		methods = append(methods, method)
		mu.Unlock()
		if method == "bad" {
			return server.UploadResponse{OK: false, Reason: "nope"}, nil
		}
		return server.UploadResponse{OK: true}, nil
	})
	sess, err := f.OpenSession("client-1", "agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	es := sess.(transport.ElidingSession)
	for _, m := range []string{"ok", "bad", "after"} {
		if err := es.SendNoAck(m, server.FailRequest{TaskID: "t"}); err != nil {
			t.Fatalf("no-ack %s: %v", m, err)
		}
	}
	out, err := es.Call("final", server.FailRequest{TaskID: "t"})
	if err != nil {
		t.Fatalf("acked call after held failure: %v", err)
	}
	ur := out.(server.UploadResponse)
	if ur.OK || ur.Reason != "nope" {
		t.Fatalf("held response = %+v, want the bad chunk's failure", ur)
	}
	// "after" was drained without dispatch and "final" was answered from
	// the held response without being invoked.
	mu.Lock()
	if len(methods) != 2 || methods[0] != "ok" || methods[1] != "bad" {
		t.Fatalf("handler saw %v", methods)
	}
	mu.Unlock()
}

// TestAckElideDegradesForUnknownCapsPeer: toward a peer whose capability
// document was never fetched (the zero document), the session must keep
// per-chunk acknowledgements: the elision surface reports false and no
// acks are elided.
func TestAckElideDegradesForUnknownCapsPeer(t *testing.T) {
	srv := newTestFabric(t, Options{})
	srv.Register("node", func(method string, payload any) (any, error) {
		return server.UploadResponse{OK: true}, nil
	})
	caller := newTestFabric(t, Options{AckElide: true})
	// AddRoute without Discover: capabilities stay unknown.
	caller.AddRoute("node", srv.BaseURL())

	sess, err := caller.OpenSession("client-1", "node")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if es, ok := sess.(transport.ElidingSession); ok && es.ElidesAcks() {
		t.Fatal("session elides acks toward a peer that never negotiated the capability")
	}
	out, err := sess.Call("chunk", server.FailRequest{TaskID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if ur := out.(server.UploadResponse); !ur.OK {
		t.Fatalf("per-chunk acked call = %+v", ur)
	}
	if st := caller.Stats(); st.AcksElided != 0 {
		t.Fatalf("AcksElided = %d toward a non-negotiating peer", st.AcksElided)
	}
}
