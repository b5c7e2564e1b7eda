package streamcore_test

// Engine tests over net.Pipe: a client Session against Serve with no
// socket and no fabric underneath, so each test pins one rule of the wire
// protocol — lock-step answers, ack suppression, the held-failure rhythm,
// the frame bound, and rejection of unknown frame flags.

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
)

// recorder is a Serve Invoke that logs every dispatched method and answers
// through respond.
type recorder struct {
	mu      sync.Mutex
	methods []string
	respond func(req *wire.Request) *wire.Response
}

func (r *recorder) invoke(req *wire.Request) *wire.Response {
	r.mu.Lock()
	r.methods = append(r.methods, req.Method)
	r.mu.Unlock()
	return r.respond(req)
}

func (r *recorder) seen() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return strings.Join(r.methods, ",")
}

// uploadAck answers every call with an elidable UploadResponse whose
// Reason names the method, so a response read by the client shows which
// call produced it.
func uploadAck(req *wire.Request) *wire.Response {
	return &wire.Response{Payload: server.UploadResponse{OK: true, Reason: req.Method}}
}

// servePipe runs Serve on one end of a net.Pipe and returns the other end.
// The serving goroutine closes its end on return; cleanup waits for it.
func servePipe(t *testing.T, maxFrame int, counters *streamcore.Counters, rec *recorder) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		streamcore.Serve(streamcore.NewNetConn(srv), streamcore.ServeConfig{
			MaxFrame: maxFrame,
			Prefix:   "test",
			Counters: counters,
			Invoke:   rec.invoke,
		})
	}()
	t.Cleanup(func() {
		_ = cli.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after the client closed")
		}
	})
	return cli
}

// newPair starts a served pipe and wraps the client end in a Session.
func newPair(t *testing.T, maxFrame int, rec *recorder) (sess *streamcore.Session, cliCounters, srvCounters *streamcore.Counters) {
	t.Helper()
	cliCounters, srvCounters = new(streamcore.Counters), new(streamcore.Counters)
	cli := servePipe(t, maxFrame, srvCounters, rec)
	// The call deadline turns a protocol desync (both ends blocked on the
	// synchronous pipe) into a failed call instead of a hung test.
	sess = streamcore.NewSession(streamcore.NewNetConn(cli), streamcore.Config{
		Node:        "agg-0",
		Prefix:      "test",
		CallTimeout: 5 * time.Second,
		MaxFrame:    1 << 20,
		Counters:    cliCounters,
	})
	return sess, cliCounters, srvCounters
}

func TestLockStepRoundTrip(t *testing.T) {
	rec := &recorder{respond: func(req *wire.Request) *wire.Response {
		if req.Method == "fail" {
			return &wire.Response{Kind: transport.KindCrashed, Err: "agg-0"}
		}
		return &wire.Response{Payload: req.From + ":" + req.Method + ":" + req.Payload.(string)}
	}}
	sess, cli, _ := newPair(t, 1<<20, rec)
	for _, m := range []string{"a", "b", "c"} {
		out, err, wrote := sess.Do("client-1", m, "x")
		if err != nil || !wrote {
			t.Fatalf("call %s: err=%v wrote=%v", m, err, wrote)
		}
		if want := "client-1:" + m + ":x"; out != want {
			t.Fatalf("call %s answered %v, want %q", m, out, want)
		}
	}
	// A transport-kind error crosses as its sentinel over a healthy session.
	if _, err, _ := sess.Do("client-1", "fail", "x"); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("kind error = %v, want ErrCrashed", err)
	}
	if sess.Broken() {
		t.Fatal("an application-level failure broke the session")
	}
	if got := rec.seen(); got != "a,b,c,fail" {
		t.Fatalf("server dispatched %s", got)
	}
	if st := cli.Snapshot(); st.Calls != 4 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("client counters = %+v", st)
	}
}

func TestNoAckSuppressed(t *testing.T) {
	rec := &recorder{respond: uploadAck}
	sess, cli, srv := newPair(t, 1<<20, rec)
	for _, m := range []string{"chunk-0", "chunk-1", "chunk-2"} {
		if err := sess.SendNoAck("client-1", m, server.FailRequest{TaskID: "t"}); err != nil {
			t.Fatalf("no-ack %s: %v", m, err)
		}
	}
	// Had any chunk been acknowledged, this read would return that ack's
	// Reason instead of the final call's.
	out, err, _ := sess.Do("client-1", "final", server.FailRequest{TaskID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if ur := out.(server.UploadResponse); !ur.OK || ur.Reason != "final" {
		t.Fatalf("final call answered %+v", ur)
	}
	if got := rec.seen(); got != "chunk-0,chunk-1,chunk-2,final" {
		t.Fatalf("server dispatched %s", got)
	}
	if n := srv.AcksElided.Load(); n != 3 {
		t.Fatalf("server AcksElided = %d, want 3", n)
	}
	if n := cli.AcksElided.Load(); n != 3 {
		t.Fatalf("client AcksElided = %d, want 3", n)
	}
	if n := cli.FramesCoalesced.Load(); n != 4 {
		t.Fatalf("FramesCoalesced = %d, want the 3 queued frames plus the final one", n)
	}
}

func TestHeldFailureAnswersNextAckedCall(t *testing.T) {
	rec := &recorder{respond: func(req *wire.Request) *wire.Response {
		if req.Method == "bad" {
			return &wire.Response{Payload: server.UploadResponse{OK: false, Reason: "nope"}}
		}
		return uploadAck(req)
	}}
	sess, _, srv := newPair(t, 1<<20, rec)
	for _, m := range []string{"ok", "bad", "after-0", "after-1"} {
		if err := sess.SendNoAck("client-1", m, server.FailRequest{TaskID: "t"}); err != nil {
			t.Fatalf("no-ack %s: %v", m, err)
		}
	}
	out, err, _ := sess.Do("client-1", "final", server.FailRequest{TaskID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if ur := out.(server.UploadResponse); ur.OK || ur.Reason != "nope" {
		t.Fatalf("acked call answered %+v, want the held failure", ur)
	}
	// The frames after the failure drained undispatched, and the acked
	// call was answered from the held response without being invoked.
	if got := rec.seen(); got != "ok,bad" {
		t.Fatalf("server dispatched %s, want ok,bad", got)
	}
	if n := srv.AcksElided.Load(); n != 1 {
		t.Fatalf("server AcksElided = %d, want 1 (only the ok chunk)", n)
	}
	// Framing is still in step: the next acked call is dispatched and
	// answered normally.
	out, err, _ = sess.Do("client-1", "next", server.FailRequest{TaskID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if ur := out.(server.UploadResponse); !ur.OK || ur.Reason != "next" {
		t.Fatalf("call after the held failure answered %+v", ur)
	}
	if got := rec.seen(); got != "ok,bad,next" {
		t.Fatalf("server dispatched %s", got)
	}
}

func TestMaxFrameBound(t *testing.T) {
	rec := &recorder{respond: uploadAck}
	sess, _, _ := newPair(t, 64, rec)
	_, err, _ := sess.Do("client-1", "big", strings.Repeat("x", 1024))
	if !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("oversized frame error = %v, want ErrCrashed", err)
	}
	if !sess.Broken() {
		t.Fatal("session not marked broken after the server dropped it")
	}
	if got := rec.seen(); got != "" {
		t.Fatalf("oversized frame dispatched: %s", got)
	}
}

func TestRetiredDeflateFlagRejected(t *testing.T) {
	rec := &recorder{respond: uploadAck}
	cli := servePipe(t, 1<<20, new(streamcore.Counters), rec)
	body, err := (wire.Binary{}).AppendRequest(nil, &wire.Request{From: "c", Method: "m", Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Flag bit 0 was the per-frame deflate flag; no build sets it now, so
	// the server must treat it as an unknown format and drop the stream.
	if _, err := cli.Write(wire.AppendStreamFrame(nil, 0x1, body)); err != nil {
		t.Fatal(err)
	}
	_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := cli.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("server answered a deflate-flagged frame: n=%d err=%v", n, err)
	}
	if got := rec.seen(); got != "" {
		t.Fatalf("deflate-flagged frame dispatched: %s", got)
	}
}
