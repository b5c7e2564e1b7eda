package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

// countingProbe counts what a decorator reports.
type countingProbe struct{ handles, calls, noAcks, opens atomic.Int64 }

func (p *countingProbe) handled(string, string, any, any, time.Duration) { p.handles.Add(1) }

func (p *countingProbe) called(_, _ string, _ any, _ error, noAck bool, _ time.Duration) {
	p.calls.Add(1)
	if noAck {
		p.noAcks.Add(1)
	}
}

func (p *countingProbe) opened(string, time.Duration) { p.opens.Add(1) }

// fakeSession is a Session that may or may not offer ack elision.
type fakeSession struct{}

func (fakeSession) Call(string, any) (any, error) { return nil, nil }
func (fakeSession) Close() error                  { return nil }

type fakeElidingSession struct{ fakeSession }

func (fakeElidingSession) ElidesAcks() bool            { return true }
func (fakeElidingSession) SendNoAck(string, any) error { return nil }

// fakeStreamFabric opens the session it holds.
type fakeStreamFabric struct {
	*transport.Network
	sess transport.Session
}

func (f fakeStreamFabric) OpenSession(string, string) (transport.Session, error) { return f.sess, nil }

func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	p := &countingProbe{}
	net := transport.NewNetwork(1)

	if _, ok := wrapFabric(net, p).(transport.StreamFabric); ok {
		t.Error("wrapping a fabric without sessions added transport.StreamFabric")
	}
	for _, tc := range []struct {
		name   string
		sess   transport.Session
		elides bool
	}{
		{"plain session", fakeSession{}, false},
		{"eliding session", fakeElidingSession{}, true},
	} {
		w, ok := wrapFabric(fakeStreamFabric{Network: net, sess: tc.sess}, p).(transport.StreamFabric)
		if !ok {
			t.Fatalf("%s: wrapped fabric hides transport.StreamFabric", tc.name)
		}
		s, err := w.OpenSession("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		es, ok := s.(transport.ElidingSession)
		if ok != tc.elides {
			t.Fatalf("%s: wrapped session implements ElidingSession = %v, want %v", tc.name, ok, tc.elides)
		}
		if ok && !es.ElidesAcks() {
			t.Errorf("%s: wrapped session does not pass ElidesAcks through", tc.name)
		}
	}
}

// TestWrappedTCPSessionElides drives a real tcp fabric through the
// decorator: the session a device opens must still negotiate ack elision,
// and every call and handler must reach the probe.
func TestWrappedTCPSessionElides(t *testing.T) {
	f, err := tcptransport.New(tcptransport.Options{Listen: "127.0.0.1:0", Codec: "bin", AckElide: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := &countingProbe{}
	w := wrapFabric(f, p)
	var chunks atomic.Int64
	w.Register("agg-0", func(method string, payload any) (any, error) {
		chunks.Add(1)
		return server.UploadResponse{OK: true}, nil
	})

	s, err := transport.OpenSession(w, "client-1", "agg-0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	es, ok := s.(transport.ElidingSession)
	if !ok || !es.ElidesAcks() {
		t.Fatalf("wrapped tcp session hides ack elision (ElidingSession %v)", ok)
	}
	for i := 0; i < 3; i++ {
		if err := es.SendNoAck("upload-chunk", server.UploadChunk{TaskID: "t", Offset: i}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := es.Call("upload-chunk", server.UploadChunk{TaskID: "t", Offset: 3, Done: true})
	if err != nil {
		t.Fatal(err)
	}
	if ur, ok := out.(server.UploadResponse); !ok || !ur.OK {
		t.Fatalf("final chunk answered %#v", out)
	}
	if got := f.Stats().AcksElided; got < 3 {
		t.Errorf("fabric elided %d acks, want at least 3", got)
	}
	if chunks.Load() != 4 || p.handles.Load() != 4 {
		t.Errorf("handler ran %d times, probe saw %d, want 4", chunks.Load(), p.handles.Load())
	}
	if p.calls.Load() != 4 || p.noAcks.Load() != 3 || p.opens.Load() != 1 {
		t.Errorf("probe saw %d calls (%d no-ack) and %d opens, want 4 (3) and 1",
			p.calls.Load(), p.noAcks.Load(), p.opens.Load())
	}
}
