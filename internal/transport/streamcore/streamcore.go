// Package streamcore is the session engine behind both networked fabrics
// and the only way their calls travel: every call, pooled or pinned to a
// participation session, is a wire.Binary frame on a long-lived stream.
// The HTTP and raw-TCP backends supply a small Conn (read-frame /
// write-frames / set-deadline / close) and share everything else — the
// idle-session pool, the pipelined frame-serving loop, per-call deadlines,
// and pooled encode buffers:
//
//   - Ack elision (wire.StreamFlagNoAck, negotiated as the
//     wire.Capabilities.AckElide stream capability): calls whose responses
//     the caller does not need ride the stream unanswered. The server
//     suppresses the acknowledgement only when the handler's response opts
//     in (transport.AckElidable) and nothing failed; the first failure is
//     held and delivered on the session's next acknowledged frame, so
//     request/response framing never desynchronizes and errors are never
//     dropped. Peers that did not negotiate the capability keep the
//     per-frame request/response rhythm.
//
//   - Frame coalescing: queued no-ack frames and the next acknowledged
//     frame flush as one net.Buffers write — a writev on TCP — instead of
//     one syscall per frame.
//
//   - Deadline-per-call timeouts: every call arms Conn.SetDeadline for the
//     fabric's CallTimeout and clears it on completion.
//
// Fault parity holds on both ends: client-side fault checks stay in the
// fabrics (checkCall before every streamed call, elided or not), and the
// server loop routes every decoded frame through the fabric's fault-check
// dispatch.
package streamcore

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// coalesceFlushBytes is the queued no-ack byte threshold that forces a
// flush: enough to amortize a writev over several chunk frames, small
// enough that a pipelined 4096-element chunk train flushes every few
// frames instead of buffering a whole model in client memory.
const coalesceFlushBytes = 64 << 10

// Conn is one framed, ordered, full-duplex byte stream — the only thing a
// backend must supply. The TCP fabric wraps a net.Conn (NetConn); the HTTP
// fabric wraps its long-lived POST pipe on the client side and the
// request/response bodies on the server side.
type Conn interface {
	// ReadFrame reads the next stream frame, returning its flags and
	// payload. The payload aliases the Conn's internal scratch and is
	// valid only until the next ReadFrame. max bounds the declared
	// payload length. io.EOF before the first byte is a clean end of
	// stream.
	ReadFrame(max int) (flags byte, payload []byte, err error)
	// WriteFrames writes the buffers as one coalesced write (a writev
	// where the backend supports it), returning the bytes written.
	WriteFrames(bufs net.Buffers) (int64, error)
	// SetDeadline bounds all pending and future I/O; the zero time clears
	// it. Backends without native deadlines emulate with a reusable timer
	// that force-closes the conn.
	SetDeadline(t time.Time) error
	// Close releases the conn; idempotent.
	Close() error
}

// Counters are a fabric's cumulative traffic counters, updated by the
// engine on both the client and server halves. The fabric owns one set and
// snapshots it for transport.Stats.
type Counters struct {
	Calls           atomic.Uint64
	BytesSent       atomic.Uint64
	BytesReceived   atomic.Uint64
	AcksElided      atomic.Uint64
	FramesCoalesced atomic.Uint64
}

// Snapshot returns the counters as a transport.Stats value.
func (c *Counters) Snapshot() transport.Stats {
	return transport.Stats{
		Calls:           c.Calls.Load(),
		BytesSent:       c.BytesSent.Load(),
		BytesReceived:   c.BytesReceived.Load(),
		AcksElided:      c.AcksElided.Load(),
		FramesCoalesced: c.FramesCoalesced.Load(),
	}
}

// NetConn adapts a net.Conn to the Conn interface: buffered frame reads
// with a reusable scratch, writev via net.Buffers, native deadlines. Both
// halves of the TCP fabric use it (client sessions and accepted conns).
type NetConn struct {
	c       net.Conn
	br      *bufio.Reader
	scratch []byte
}

// NewNetConn wraps c with a 32 KiB read buffer.
func NewNetConn(c net.Conn) *NetConn {
	return &NetConn{c: c, br: bufio.NewReaderSize(c, 32<<10)}
}

// ReadFrame implements Conn.
func (n *NetConn) ReadFrame(max int) (byte, []byte, error) {
	flags, payload, scratch, err := wire.ReadStreamFrameFrom(n.br, n.scratch, max)
	n.scratch = scratch
	return flags, payload, err
}

// WriteFrames implements Conn; on a *net.TCPConn the whole batch goes out
// as one writev.
func (n *NetConn) WriteFrames(bufs net.Buffers) (int64, error) {
	return bufs.WriteTo(n.c)
}

// SetDeadline implements Conn.
func (n *NetConn) SetDeadline(t time.Time) error { return n.c.SetDeadline(t) }

// Close implements Conn.
func (n *NetConn) Close() error { return n.c.Close() }

// framePool recycles encode buffers for response frames and queued no-ack
// request frames — one shared pool where each fabric used to keep its own
// copy (wrap headers recycled so a release doesn't heap-allocate a slice
// header).
type frameWrap struct{ b []byte }

var (
	framePool  sync.Pool
	frameWraps sync.Pool
)

// GetFrame returns a pooled byte buffer with zero length.
func GetFrame() []byte {
	if w, _ := framePool.Get().(*frameWrap); w != nil {
		b := w.b[:0]
		w.b = nil
		frameWraps.Put(w)
		return b
	}
	return make([]byte, 0, 4096)
}

// PutFrame returns a buffer obtained from GetFrame (or grown from one).
func PutFrame(b []byte) {
	w, _ := frameWraps.Get().(*frameWrap)
	if w == nil {
		w = new(frameWrap)
	}
	w.b = b
	framePool.Put(w)
}
