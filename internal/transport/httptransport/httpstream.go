package httptransport

// The HTTP backend of the session engine. A session rides ONE long-lived
// POST to /papaya/v2/stream/{node}: the request body is a pipelined
// sequence of length-prefixed wire frames (wire.AppendStreamFrame), the
// response body is the matching sequence of response frames, and the HTTP
// machinery is paid once per session instead of once per call.
// Full-duplex HTTP/1.1 (http.ResponseController.EnableFullDuplex) lets the
// handler answer frame by frame while the client keeps writing.
//
// The session machinery itself — pipelined serving, idle pooling, per-call
// deadlines, ack elision, frame coalescing — lives in the shared
// internal/transport/streamcore engine; this file supplies the two HTTP
// adapters (the client's long-lived POST pipe and the server's full-duplex
// response). Fault injection holds on both ends: the client side runs
// the table's fault checks before every call, and the server side runs
// Table.Invoke for every frame, so the conformance suite's Appendix E.4
// failure drills hold verbatim.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
)

// Compile-time check: the HTTP backend offers the streaming surface.
var _ transport.StreamFabric = (*Fabric)(nil)

// streamContentType marks a streaming response body (a frame sequence, not
// a single RPC frame).
const streamContentType = "application/x-papaya-stream"

// maxIdleStreamsPerPeer caps the cached sessions kept per (peer, node)
// pair; extras beyond the cap are closed on release.
const maxIdleStreamsPerPeer = 16

// --- server side ---

// httpConn adapts one inbound stream POST (request body in, response
// writer out) to the engine's Conn. Deadlines map onto the
// http.ResponseController's read/write deadlines.
type httpConn struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	body    io.Closer
	br      *bufio.Reader
	scratch []byte
}

func (h *httpConn) ReadFrame(max int) (byte, []byte, error) {
	flags, payload, scratch, err := wire.ReadStreamFrameFrom(h.br, h.scratch, max)
	h.scratch = scratch
	return flags, payload, err
}

func (h *httpConn) WriteFrames(bufs net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(h.w)
	if err != nil {
		return n, err
	}
	return n, h.rc.Flush()
}

func (h *httpConn) SetDeadline(t time.Time) error {
	if err := h.rc.SetReadDeadline(t); err != nil {
		return err
	}
	return h.rc.SetWriteDeadline(t)
}

func (h *httpConn) Close() error { return h.body.Close() }

// handleStream serves one streaming session through the shared engine: a
// pipelined sequence of length-prefixed request frames answered in order by
// response frames over a single POST. Every frame runs through Invoke's
// fault-check dispatch — injected crashes and partitions take effect
// mid-stream — and no-ack frames take the engine's suppression path. The
// loop exits when the client closes its end (the session's natural close
// signal) or the connection breaks.
func (f *Fabric) handleStream(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	rc := http.NewResponseController(w)
	// Full duplex: we must answer earlier frames while the client still
	// writes later ones. Best-effort — HTTP/1.1 (our only transport; h2
	// needs TLS) supports it.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", streamContentType)
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // release the client's Do() before the first frame

	conn := &httpConn{w: w, rc: rc, body: r.Body, br: bufio.NewReaderSize(r.Body, 32<<10)}
	streamcore.Serve(conn, streamcore.ServeConfig{
		MaxFrame: maxFrameBytes,
		Prefix:   "httptransport",
		Counters: &f.counters,
		Invoke: func(req *wire.Request) *wire.Response {
			return f.Invoke(node, req, "httptransport")
		},
	})
}

// --- client side ---

// pipeConn adapts the client half of one stream POST — the request-body
// pipe out, the response body in — to the engine's Conn. HTTP bodies have
// no native deadlines, so SetDeadline arms one persistent reusable timer
// that force-closes the conn (the engine clears it after every completed
// exchange; an armed timer firing while the session idles in a pool would
// otherwise destroy it).
type pipeConn struct {
	pw     *io.PipeWriter
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc

	scratch []byte

	tmu   sync.Mutex
	timer *time.Timer
}

func (p *pipeConn) ReadFrame(max int) (byte, []byte, error) {
	flags, payload, scratch, err := wire.ReadStreamFrameFrom(p.br, p.scratch, max)
	p.scratch = scratch
	return flags, payload, err
}

func (p *pipeConn) WriteFrames(bufs net.Buffers) (int64, error) {
	return bufs.WriteTo(p.pw)
}

func (p *pipeConn) SetDeadline(t time.Time) error {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if t.IsZero() {
		if p.timer != nil {
			p.timer.Stop()
		}
		return nil
	}
	d := time.Until(t)
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.abort)
		return nil
	}
	p.timer.Stop()
	p.timer.Reset(d)
	return nil
}

// abort force-closes the underlying connection, unblocking any in-flight
// read or pipe write. Closing the body pipe matters as much as the cancel:
// when the peer dies, the transport's write loop is blocked reading this
// pipe, and context cancellation cannot interrupt a body Read — only the
// close can.
func (p *pipeConn) abort() {
	p.pw.CloseWithError(errors.New("httptransport: stream call timed out"))
	p.resp.Body.Close()
	p.cancel()
}

func (p *pipeConn) Close() error {
	p.tmu.Lock()
	if p.timer != nil {
		p.timer.Stop()
	}
	p.tmu.Unlock()
	p.pw.Close() // EOF at the server: the session's natural close signal
	p.resp.Body.Close()
	p.cancel()
	return nil
}

// openStreamSession dials one streaming session toward target for node.
// The caller has already checked faults.
func (f *Fabric) openStreamSession(target, node string) (*streamcore.Session, error) {
	pr, pw := io.Pipe()
	// The open phase (dial + response headers) is deadline-bounded like
	// any call — a blackholed peer must fail fast so the caller can fail
	// over — but the context must outlive Do: cancelling it would kill
	// the long-lived stream, so the timer only fires on a slow open and
	// the session owns the cancel for its teardown.
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, target+apiPrefix+"/stream/"+url.PathEscape(node), pr)
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	httpReq.Header.Set("Content-Type", streamContentType)
	var openTimer *time.Timer
	if f.callTimeout > 0 {
		openTimer = time.AfterFunc(f.callTimeout, func() {
			pw.CloseWithError(errors.New("httptransport: stream open timed out"))
			cancel()
		})
	}
	resp, err := f.streamClient.Do(httpReq)
	if openTimer != nil {
		openTimer.Stop()
	}
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		pw.Close()
		return nil, fmt.Errorf("httptransport: stream to %s: HTTP %d: %s", node, resp.StatusCode, msg)
	}
	conn := &pipeConn{pw: pw, resp: resp, br: bufio.NewReaderSize(resp.Body, 32<<10), cancel: cancel}
	s := streamcore.NewSession(conn, streamcore.Config{
		Node:        node,
		Prefix:      "httptransport",
		CallTimeout: f.callTimeout,
		MaxFrame:    maxFrameBytes,
		Counters:    &f.counters,
	})
	if !f.pool.Track(s) {
		// Lost the race against Close: a session registered now would
		// never be torn down (Close already snapshotted the pool).
		conn.Close()
		return nil, errors.New("httptransport: fabric closed")
	}
	return s, nil
}

// OpenSession implements transport.StreamFabric: one dedicated connection
// per session. The session elides acks only when this fabric opted in and
// the peer advertised the capability — otherwise per-chunk acks keep
// flowing.
func (f *Fabric) OpenSession(from, to string) (transport.Session, error) {
	target, isLocal, err := f.Resolve(from, to, "open-session")
	if err != nil {
		return nil, err
	}
	s, err := f.openStreamSession(target, to)
	if err != nil {
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, to, err)
	}
	return streamcore.NewBound(f.pool, s, from, to, f.ackElide && f.Elides(target, isLocal), f.Check), nil
}
