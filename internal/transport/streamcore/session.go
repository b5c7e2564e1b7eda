package streamcore

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Config parameterizes a client Session for the fabric that owns it.
type Config struct {
	// Codec selects nothing: every frame is wire.Binary.
	//
	// Deprecated: the field is inert and kept only so existing callers
	// compile.
	Codec wire.Binary
	// Node is the callee every frame on this session addresses, used in
	// error text.
	Node string
	// Prefix is the owning fabric's error prefix ("httptransport",
	// "tcptransport").
	Prefix string
	// CallTimeout bounds one call end to end via Conn.SetDeadline; zero
	// disables the per-call deadline.
	CallTimeout time.Duration
	// MaxFrame bounds one response payload.
	MaxFrame int
	// Counters receives the session's traffic accounting (the owning
	// fabric's cumulative counters).
	Counters *Counters
}

// Session is one live client-side streaming session pinned to a target
// node: pipelined calls serialized by an internal mutex, with optional
// no-ack sends that queue and coalesce into the next flush. The wire
// frame carries From, so any caller may use a pooled Session.
type Session struct {
	conn Conn
	cfg  Config

	broken atomic.Bool
	closed atomic.Bool

	mu      sync.Mutex
	req     wire.Request // reused header; payload set per call
	encBuf  []byte       // codec frame scratch
	outBuf  []byte       // acked-call stream frame scratch
	pending [][]byte     // queued no-ack frames (pooled buffers)
	pendBts int          // queued bytes, drives the flush threshold
	writev  [][]byte     // net.Buffers scratch (WriteTo consumes a copy)
}

// NewSession wraps an opened Conn. The caller has already performed the
// backend's open handshake (HTTP response headers, TCP hello).
func NewSession(conn Conn, cfg Config) *Session {
	return &Session{conn: conn, cfg: cfg}
}

// Broken reports whether a connection-level failure was observed.
func (s *Session) Broken() bool { return s.broken.Load() }

// Closed reports whether the session was torn down.
func (s *Session) Closed() bool { return s.closed.Load() }

// Node returns the callee this session is pinned to.
func (s *Session) Node() string { return s.cfg.Node }

// Do sends one call over the session and reads its response. Fault checks
// are the caller's job (the fabrics run checkCall first). Any no-ack
// frames queued by SendNoAck flush ahead of the call in the same coalesced
// write, and the single response read may surface an earlier elided call's
// failure — which is exactly the contract: the next acknowledged call owns
// any queued failure. A connection-level failure marks the session broken;
// wrote reports whether any request bytes may have reached the peer (the
// at-most-once guard: callers may transparently retry a failed call on
// another connection only when wrote is false).
func (s *Session) Do(from, method string, payload any) (out any, err error, wrote bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || s.broken.Load() {
		return nil, fmt.Errorf("%w: %s: stream closed", transport.ErrCrashed, s.cfg.Node), false
	}
	frame, err := s.encodeFrame(s.outBuf[:0], from, method, payload, 0)
	if err != nil {
		// An unregistered payload is a caller bug, not a broken session.
		return nil, fmt.Errorf("%s: encoding %s call to %s: %w", s.cfg.Prefix, method, s.cfg.Node, err), false
	}
	if cap(frame) > cap(s.outBuf) {
		s.outBuf = frame
	}
	s.cfg.Counters.Calls.Add(1)
	s.cfg.Counters.BytesSent.Add(uint64(len(frame)))

	n, werr := s.writeLocked(frame)
	if werr != nil {
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, werr), n > 0
	}
	wrote = true
	_, raw, err := s.conn.ReadFrame(s.cfg.MaxFrame)
	if err != nil {
		s.broken.Store(true)
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, err), true
	}
	s.clearDeadline()
	s.cfg.Counters.BytesReceived.Add(uint64(len(raw)))
	resp, err := wire.Binary{}.DecodeResponse(raw)
	if err != nil {
		s.broken.Store(true)
		return nil, fmt.Errorf("%s: decoding stream response from %s: %w", s.cfg.Prefix, s.cfg.Node, err), true
	}
	if resp.Kind != "" {
		return nil, transport.KindToError(resp.Kind, resp.Err), true
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err), true
	}
	return resp.Payload, nil, true
}

// SendNoAck queues one call to ride the stream without an acknowledgement
// (wire.StreamFlagNoAck). The frame coalesces with later sends and flushes
// either at the byte threshold or ahead of the next Do. An error means the
// session broke and nothing further can be sent on it; whether the queued
// frames reached the peer is unknown, exactly like a failed acked call
// after wrote.
func (s *Session) SendNoAck(from, method string, payload any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || s.broken.Load() {
		return fmt.Errorf("%w: %s: stream closed", transport.ErrCrashed, s.cfg.Node)
	}
	frame, err := s.encodeFrame(GetFrame(), from, method, payload, wire.StreamFlagNoAck)
	if err != nil {
		PutFrame(frame)
		return fmt.Errorf("%s: encoding %s call to %s: %w", s.cfg.Prefix, method, s.cfg.Node, err)
	}
	s.pending = append(s.pending, frame)
	s.pendBts += len(frame)
	s.cfg.Counters.Calls.Add(1)
	s.cfg.Counters.BytesSent.Add(uint64(len(frame)))
	s.cfg.Counters.AcksElided.Add(1)
	if s.pendBts < coalesceFlushBytes {
		return nil
	}
	if _, err := s.writeLocked(nil); err != nil {
		return fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, err)
	}
	s.clearDeadline()
	return nil
}

// Flush forces any queued no-ack frames onto the wire without waiting for
// the byte threshold or the next acknowledged call — for callers that know
// the peer should see the queued work now (end of a chunk train that will
// pause before its final acked call).
func (s *Session) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	if s.closed.Load() || s.broken.Load() {
		return fmt.Errorf("%w: %s: stream closed", transport.ErrCrashed, s.cfg.Node)
	}
	if _, err := s.writeLocked(nil); err != nil {
		return fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, err)
	}
	s.clearDeadline()
	return nil
}

// encodeFrame encodes one request into dst as a complete stream frame with
// the given flags.
func (s *Session) encodeFrame(dst []byte, from, method string, payload any, flags byte) ([]byte, error) {
	s.req.From, s.req.Method, s.req.Payload = from, method, payload
	body, err := wire.Binary{}.AppendRequest(s.encBuf[:0], &s.req)
	s.req.Payload = nil
	if err != nil {
		return dst, err
	}
	if cap(body) > cap(s.encBuf) {
		s.encBuf = body // keep the grown scratch for the next frame
	}
	return wire.AppendStreamFrame(dst, flags, body), nil
}

// writeLocked flushes the queued no-ack frames plus the optional final
// frame as one coalesced write under the per-call deadline, returning the
// pooled pending buffers either way. A write failure marks the session
// broken. Caller holds s.mu.
func (s *Session) writeLocked(final []byte) (int64, error) {
	bufs := s.writev[:0]
	bufs = append(bufs, s.pending...)
	if final != nil {
		bufs = append(bufs, final)
	}
	s.writev = bufs
	if len(bufs) > 1 {
		s.cfg.Counters.FramesCoalesced.Add(uint64(len(bufs)))
	}
	if s.cfg.CallTimeout > 0 {
		_ = s.conn.SetDeadline(time.Now().Add(s.cfg.CallTimeout))
	}
	n, err := s.conn.WriteFrames(net.Buffers(bufs))
	for _, f := range s.pending {
		PutFrame(f)
	}
	s.pending, s.pendBts = s.pending[:0], 0
	if err != nil {
		s.broken.Store(true)
	}
	return n, err
}

// clearDeadline disarms the per-call deadline after a completed exchange;
// backends that emulate deadlines with an abort timer must not fire while
// the session idles in a pool.
func (s *Session) clearDeadline() {
	if s.cfg.CallTimeout > 0 {
		_ = s.conn.SetDeadline(time.Time{})
	}
}

// Teardown closes the session's conn; idempotent, and safe to call
// concurrently with an in-flight Do (the conn close is what unblocks it).
// Queued no-ack frames are discarded — an abandoned session's elided
// chunks are never delivered, exactly like a vanished per-call client.
func (s *Session) Teardown() {
	if s.closed.Swap(true) {
		return
	}
	// Recycle queued frames when no call is in flight; when one is (a
	// racing fabric Close), leave them to the GC rather than block the
	// close on the call's deadline.
	if s.mu.TryLock() {
		for _, f := range s.pending {
			PutFrame(f)
		}
		s.pending, s.pendBts = nil, 0
		s.mu.Unlock()
	}
	_ = s.conn.Close()
}
