package httptransport_test

// Tests for the HTTP streaming session backend: one long-lived POST on
// /papaya/v2/stream carrying a pipelined sequence of length-prefixed
// frames. The fault-parity contract must hold per frame (injected crashes
// and partitions take effect mid-stream), ack elision must stay off toward
// peers that did not negotiate it, and closing a fabric must not leak the
// stream-serving goroutines.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
)

func newStreamFabric(t *testing.T, opts httptransport.Options) *httptransport.Fabric {
	t.Helper()
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	f, err := httptransport.New(opts)
	if err != nil {
		t.Fatalf("starting fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// TestStreamOpenFailsFastWhenPeerNeverResponds: a peer that accepts the
// stream-open POST but never sends response headers (a tier member dying
// between accept and response, as a fleet failover storm produces) must
// surface as a timely error, not a wedge. Regression: Do cannot return
// until the transport's write loop exits, the write loop blocks reading
// the session's body pipe, and context cancellation cannot interrupt a
// body Read — the open timer must close the pipe too.
func TestStreamOpenFailsFastWhenPeerNeverResponds(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stubURL := "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /papaya/v2/nodes", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"base_url":%q,"nodes":["victim"]}`, stubURL)
	})
	mux.HandleFunc("POST /papaya/v2/stream/victim", func(w http.ResponseWriter, r *http.Request) {
		<-release // mute: no headers, no body read
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	f := newStreamFabric(t, httptransport.Options{CallTimeout: 300 * time.Millisecond})
	if _, err := f.Discover(stubURL); err != nil {
		t.Fatalf("discovering stub: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		sess, err := f.OpenSession("caller", "victim")
		if err == nil {
			sess.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("open against a mute peer unexpectedly succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OpenSession wedged on a mute peer (write loop never released)")
	}
}

// TestStreamSessionPipelinesCalls drives many calls through one explicit
// session and checks they all dispatch to the registered handler in order.
func TestStreamSessionPipelinesCalls(t *testing.T) {
	forEachCodecConfig(t, func(t *testing.T, f *httptransport.Fabric) {
		var got []string
		f.Register("echo", func(method string, payload any) (any, error) {
			got = append(got, method)
			return payload, nil
		})
		sess, err := f.OpenSession("caller", "echo")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for i := 0; i < 20; i++ {
			out, err := sess.Call(fmt.Sprintf("m%d", i), fmt.Sprintf("payload-%d", i))
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if out != fmt.Sprintf("payload-%d", i) {
				t.Fatalf("call %d echoed %v", i, out)
			}
		}
		if len(got) != 20 || got[0] != "m0" || got[19] != "m19" {
			t.Fatalf("handler saw %v", got)
		}
	})
}

// TestStreamCallModeUsesOneConnection: repeated Fabric.Call invocations
// ride cached sessions; the handler still sees every call.
func TestStreamCallModeUsesOneConnection(t *testing.T) {
	f := newStreamFabric(t, httptransport.Options{})
	calls := 0
	f.Register("node", func(method string, payload any) (any, error) {
		calls++
		return true, nil
	})
	for i := 0; i < 10; i++ {
		if _, err := f.Call("caller", "node", "ping", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if calls != 10 {
		t.Fatalf("handler saw %d calls", calls)
	}
}

// TestStreamFaultParityMidSession: crash and partition markers must take
// effect on the next streamed call.
func TestStreamFaultParityMidSession(t *testing.T) {
	f := newStreamFabric(t, httptransport.Options{})
	f.Register("node", func(method string, payload any) (any, error) { return true, nil })
	sess, err := f.OpenSession("caller", "node")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.Call("ping", nil); err != nil {
		t.Fatalf("healthy call: %v", err)
	}
	f.Crash("node")
	if _, err := sess.Call("ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("crashed callee error = %v, want ErrCrashed", err)
	}
	f.Register("node", func(method string, payload any) (any, error) { return true, nil })
	if _, err := sess.Call("ping", nil); err != nil {
		t.Fatalf("restarted callee: %v", err)
	}
	f.Partition("caller", "node")
	if _, err := sess.Call("ping", nil); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("partitioned error = %v, want ErrPartitioned", err)
	}
	f.Heal("caller", "node")
	if _, err := sess.Call("ping", nil); err != nil {
		t.Fatalf("healed call: %v", err)
	}
	f.Crash("caller")
	if _, err := sess.Call("ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("crashed caller error = %v, want ErrCrashed", err)
	}
}

// TestStreamDegradesToPerCallForV1Peers: a peer known only by a static
// route (no capability document — what a /v1 peer looked like) still gets
// a working session. Such peers once got per-call POSTs; with the POST path
// gone the session streams like any other, and the name is historical.
func TestStreamDegradesToPerCallForV1Peers(t *testing.T) {
	server := newStreamFabric(t, httptransport.Options{})
	server.Register("node", func(method string, payload any) (any, error) { return "ok", nil })
	caller := newStreamFabric(t, httptransport.Options{})
	// AddRoute without Discover: the peer's capabilities stay unknown.
	caller.AddRoute("node", server.BaseURL())

	sess, err := caller.OpenSession("caller", "node")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out, err := sess.Call("ping", nil)
	if err != nil || out != "ok" {
		t.Fatalf("session toward undiscovered peer: %v %v", out, err)
	}
}

// TestStreamSessionSurvivesLargeFrames pushes a payload well past the
// bufio sizes through a session in both directions.
func TestStreamSessionSurvivesLargeFrames(t *testing.T) {
	f := newStreamFabric(t, httptransport.Options{})
	f.Register("node", func(method string, payload any) (any, error) { return payload, nil })
	sess, err := f.OpenSession("caller", "node")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	big := make([]byte, 0, 1<<20)
	for i := 0; i < 1<<18; i++ {
		big = append(big, "wxyz"[i%4])
	}
	out, err := sess.Call("echo", string(big))
	if err != nil {
		t.Fatal(err)
	}
	if out.(string) != string(big) {
		t.Fatal("large frame corrupted in flight")
	}
}

// TestStreamCloseDoesNotLeakGoroutines opens and closes many sessions and
// fabrics and checks the goroutine count settles back to its baseline.
func TestStreamCloseDoesNotLeakGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		f, err := httptransport.New(httptransport.Options{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		f.Register("node", func(method string, payload any) (any, error) { return true, nil })
		for j := 0; j < 5; j++ {
			sess, err := f.OpenSession("caller", "node")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Call("ping", nil); err != nil {
				t.Fatal(err)
			}
			sess.Close()
		}
		// Exercise the cached-session call path too.
		if _, err := f.Call("caller", "node", "ping", nil); err != nil {
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

// TestAckElideEndToEnd mirrors the TCP fabric's elision test on the HTTP
// streaming session: no-ack chunk sends are all dispatched, only the final
// acked call crosses with a reply, and the shared counters record both the
// elided acks and the coalesced flush.
func TestAckElideEndToEnd(t *testing.T) {
	f := newStreamFabric(t, httptransport.Options{AckElide: true})
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

// TestAckElideHeldFailureSurfacesOnNextCall: the held-response protocol on
// the HTTP stream — first non-suppressible response to an elided frame is
// held, later elided frames drain without dispatch, and the next acked
// call is answered with the held response without being invoked.
func TestAckElideHeldFailureSurfacesOnNextCall(t *testing.T) {
	f := newStreamFabric(t, httptransport.Options{AckElide: true})
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
	mu.Lock()
	if len(methods) != 2 || methods[0] != "ok" || methods[1] != "bad" {
		t.Fatalf("handler saw %v", methods)
	}
	mu.Unlock()
}

// TestAckElideDegradesForV1Peers: toward a peer whose capabilities were
// never fetched (as with a /v1 peer, which published none), the session
// must not offer elision and every call keeps its acknowledgement.
func TestAckElideDegradesForV1Peers(t *testing.T) {
	srv := newStreamFabric(t, httptransport.Options{})
	srv.Register("node", func(method string, payload any) (any, error) {
		return server.UploadResponse{OK: true}, nil
	})
	caller := newStreamFabric(t, httptransport.Options{AckElide: true})
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
