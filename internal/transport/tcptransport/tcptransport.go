// Package tcptransport is the raw-TCP transport.Fabric: the same
// Coordinator/Aggregator/Selector control plane that runs over the
// in-memory Network in tests and over net/http in deployments runs here on
// bare TCP connections carrying length-prefixed wire.Binary frames — no
// request routing, no header parsing, no per-call connection lifecycle.
// It shares the streaming session engine (internal/transport/streamcore)
// with the HTTP fabric.
//
// Protocol: a connection opens with one stream frame whose payload is a
// wire.StreamHello naming the node every subsequent request addresses (the
// HTTP transport carries this in the URL path). After the hello, the
// connection is a streaming session: pipelined request frames answered in
// order by response frames. One connection per session is the native mode
// — Fabric.Call multiplexes over a cached session pool, and OpenSession
// hands out dedicated connections.
//
// Discovery and advertisement mirror the HTTP fabric's /nodes and
// /advertise documents: the reserved node name "_fabric" serves the
// "_nodes" and "_advertise" methods, whose payloads are the same JSON
// discovery document carried as a string. Fault injection implements
// transport.FaultInjector with the in-memory backend's semantics, checked
// client-side before every streamed call and server-side on every frame,
// so the server conformance suite runs its Appendix E.4 failure drills
// unchanged against this backend. A dead peer surfaces as a connection
// error mapped onto transport.ErrCrashed, exactly like the HTTP fabric.
package tcptransport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
)

// Compile-time interface checks against the contracts in internal/transport.
var (
	_ transport.Fabric        = (*Fabric)(nil)
	_ transport.FaultInjector = (*Fabric)(nil)
	_ transport.StreamFabric  = (*Fabric)(nil)
)

// Scheme prefixes a TCP fabric's advertised base URL ("tcp://host:port"),
// so tooling can pick the backend from an address the way it picks HTTP
// from "http://".
const Scheme = "tcp://"

// fabricNode is the reserved node name serving the fabric's own discovery
// and advertisement methods; real node names must not collide with it.
const fabricNode = "_fabric"

// maxFrameBytes bounds one frame payload in either direction (64 MiB ~ a
// 16M-parameter checkpoint frame), mirroring the HTTP fabric's bound so a
// hostile length prefix cannot force a huge allocation.
const maxFrameBytes = 64 << 20

// maxIdleSessionsPerPeer caps the cached Call sessions kept per
// (address, node) pair; extras are closed on release.
const maxIdleSessionsPerPeer = 16

// Options configures a Fabric.
type Options struct {
	// Listen is the TCP listen address (e.g. "127.0.0.1:7071"; port 0
	// picks a free port).
	Listen string
	// Codec names the wire codec. Only "" and "bin" are accepted; New
	// rejects anything else.
	//
	// Deprecated: wire.Binary is the only codec; leave the field empty.
	Codec string
	// AdvertiseAddr is the address peers should dial, with or without the
	// tcp:// prefix. Defaults to the bound address, which is correct on
	// localhost; set it explicitly behind NAT.
	AdvertiseAddr string
	// Seed seeds the probabilistic-loss RNG (SetLoss); 0 is a valid seed.
	Seed int64
	// CallTimeout bounds one call end to end (default 30s), enforced with
	// connection deadlines so a blackholed peer fails fast.
	CallTimeout time.Duration
	// AckElide lets this fabric's sessions send no-ack frames toward
	// peers that advertised the ack-elide capability
	// (wire.Capabilities.AckElide): non-final upload chunks ride the
	// stream unanswered and coalesce into writev batches. Off, every call
	// keeps its per-frame acknowledgement. Serving no-ack frames is
	// unconditional — the knob only governs what this fabric sends.
	AckElide bool
}

// Fabric is the raw-TCP transport.Fabric for one process. It is safe for
// concurrent use.
type Fabric struct {
	baseAddr    string // host:port peers dial
	ln          net.Listener
	callTimeout time.Duration
	ackElide    bool

	// Table holds the served nodes, routes (node -> peer host:port, the
	// tcp:// prefix stripped), peer capabilities and injected faults; its
	// methods (AddRoute, Nodes, Routes, PeerCapabilities, the
	// FaultInjector surface) are the fabric's.
	streamcore.Table

	// counters feed Stats; the shared engine updates them on both halves.
	counters streamcore.Counters

	// pool caches idle Call sessions per "addr|node" key and tracks every
	// live client session for Close; srvConns tracks the server side.
	pool *streamcore.Pool

	srvMu    sync.Mutex
	srvConns map[net.Conn]struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New binds the listener and starts serving. The returned fabric is ready
// for Register/Call immediately; Close releases the port.
func New(opts Options) (*Fabric, error) {
	if opts.Codec != "" && opts.Codec != "bin" {
		return nil, fmt.Errorf("tcptransport: wire codec %q: bin is the only codec", opts.Codec)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", opts.Listen, err)
	}
	baseAddr := strings.TrimPrefix(opts.AdvertiseAddr, Scheme)
	if baseAddr == "" {
		baseAddr = ln.Addr().String()
	}
	callTimeout := opts.CallTimeout
	if callTimeout == 0 {
		callTimeout = 30 * time.Second
	}
	f := &Fabric{
		baseAddr:    baseAddr,
		ln:          ln,
		callTimeout: callTimeout,
		ackElide:    opts.AckElide,
		pool:        streamcore.NewPool(maxIdleSessionsPerPeer),
		srvConns:    make(map[net.Conn]struct{}),
	}
	f.Init(baseAddr, trimScheme, opts.Seed)
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// BaseURL returns the URL peers use to reach this fabric ("tcp://host:port").
func (f *Fabric) BaseURL() string { return Scheme + f.baseAddr }

// Stats returns a snapshot of the fabric's traffic counters.
func (f *Fabric) Stats() transport.Stats { return f.counters.Snapshot() }

// Close stops serving, closes every live session and connection, and waits
// for the serving goroutines. It is idempotent.
func (f *Fabric) Close() error {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		_ = f.ln.Close()
		f.pool.Close()
		f.srvMu.Lock()
		conns := make([]net.Conn, 0, len(f.srvConns))
		for c := range f.srvConns {
			conns = append(conns, c)
		}
		f.srvConns = make(map[net.Conn]struct{})
		f.srvMu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		f.wg.Wait()
	})
	return nil
}

// Register attaches a node served from this process. Re-registering a name
// replaces its handler and clears any crash marker (a restarted process).
func (f *Fabric) Register(name string, h transport.Handler) {
	if name == fabricNode {
		panic("tcptransport: node name " + fabricNode + " is reserved")
	}
	f.Table.Register(name, h)
}

// --- client side ---

// dialSession opens a connection to addr, sends the hello pinning node,
// and registers the resulting engine session for Close bookkeeping. The
// wire.Request frame carries From, so pooled sessions serve any caller.
func (f *Fabric) dialSession(addr, node string) (*streamcore.Session, error) {
	conn, err := net.DialTimeout("tcp", addr, f.callTimeout)
	if err != nil {
		return nil, err
	}
	nc := streamcore.NewNetConn(conn)
	hello := wire.AppendStreamHello(nil, node)
	frame := wire.AppendStreamFrame(nil, 0, hello)
	if err := conn.SetWriteDeadline(time.Now().Add(f.callTimeout)); err == nil {
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := nc.WriteFrames(net.Buffers{frame}); err != nil {
		conn.Close()
		return nil, err
	}
	s := streamcore.NewSession(nc, streamcore.Config{
		Node:        node,
		Prefix:      "tcptransport",
		CallTimeout: f.callTimeout,
		MaxFrame:    maxFrameBytes,
		Counters:    &f.counters,
	})
	if !f.pool.Track(s) {
		conn.Close()
		return nil, errors.New("tcptransport: fabric closed")
	}
	return s, nil
}

// Call implements transport.Fabric: fault checks in the in-memory order,
// then one framed request over a pooled streaming session
// (streamcore.Pool.Call) to wherever the callee lives — through the
// loopback listener when it is this process, so every call exercises the
// full TCP wire path.
func (f *Fabric) Call(from, to, method string, payload any) (any, error) {
	addr, _, err := f.Resolve(from, to, method)
	if err != nil {
		return nil, err
	}
	return f.pool.Call(addr+"|"+to, func() (*streamcore.Session, error) {
		s, err := f.dialSession(addr, to)
		if err != nil {
			return nil, fmt.Errorf("%s unreachable: %w", to, err)
		}
		return s, nil
	}, from, method, payload)
}

// OpenSession implements transport.StreamFabric: one dedicated connection
// per session. The session elides acks only when this fabric opted in and
// the peer advertised the capability — otherwise per-chunk acks keep
// flowing.
func (f *Fabric) OpenSession(from, to string) (transport.Session, error) {
	addr, isLocal, err := f.Resolve(from, to, "open-session")
	if err != nil {
		return nil, err
	}
	s, err := f.dialSession(addr, to)
	if err != nil {
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, to, err)
	}
	return streamcore.NewBound(f.pool, s, from, to, f.ackElide && f.Elides(addr, isLocal), f.Check), nil
}

// --- server side ---

func (f *Fabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.srvMu.Lock()
		if f.closed.Load() {
			f.srvMu.Unlock()
			conn.Close()
			return
		}
		f.srvConns[conn] = struct{}{}
		f.srvMu.Unlock()
		f.wg.Add(1)
		go f.serveConn(conn)
	}
}

// serveConn handles one inbound streaming session: hello, then the shared
// engine's serve loop answers pipelined request frames in order, each
// through the same fault-check dispatch as every other backend (including
// the no-ack suppression path). The loop exits when the peer closes its
// end or the connection breaks.
func (f *Fabric) serveConn(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		f.srvMu.Lock()
		delete(f.srvConns, conn)
		f.srvMu.Unlock()
		conn.Close()
	}()

	nc := streamcore.NewNetConn(conn)
	_, hello, err := nc.ReadFrame(maxFrameBytes)
	if err != nil {
		return
	}
	node, err := wire.ParseStreamHello(hello)
	if err != nil {
		return
	}
	streamcore.Serve(nc, streamcore.ServeConfig{
		MaxFrame: maxFrameBytes,
		Prefix:   "tcptransport",
		Counters: &f.counters,
		Invoke: func(req *wire.Request) *wire.Response {
			return f.dispatch(node, req)
		},
	})
}

// dispatch runs the server-side fault checks and the handler for one
// decoded request addressed to node; the reserved _fabric node serves
// discovery and advertisement.
func (f *Fabric) dispatch(node string, req *wire.Request) *wire.Response {
	if node == fabricNode {
		out, err := f.fabricMethod(req)
		if err != nil {
			return &wire.Response{Err: err.Error()}
		}
		return &wire.Response{Payload: out}
	}
	return f.Invoke(node, req, "tcptransport")
}

// --- discovery / advertisement ---

// The discovery document (streamcore.Doc) travels as a JSON string
// payload of the reserved node's _nodes and _advertise methods — the same
// shape as the HTTP fabric's /nodes body, so the capability negotiation
// surface is identical.

// trimScheme is the table's address normalization: routes and capability
// keys are stored as bare host:port.
func trimScheme(addr string) string { return strings.TrimPrefix(addr, Scheme) }

// fabricMethod serves the reserved-node methods.
func (f *Fabric) fabricMethod(req *wire.Request) (any, error) {
	switch req.Method {
	case "_nodes":
		doc, err := json.Marshal(f.SelfDoc(f.BaseURL()))
		if err != nil {
			return nil, err
		}
		return string(doc), nil
	case "_advertise":
		raw, _ := req.Payload.(string)
		var doc streamcore.Doc
		if err := json.Unmarshal([]byte(raw), &doc); err != nil {
			return nil, fmt.Errorf("tcptransport: decoding advertisement: %w", err)
		}
		if doc.BaseURL == "" {
			return nil, errors.New("tcptransport: advertisement missing base_url")
		}
		f.Record(doc)
		self, err := json.Marshal(f.SelfDoc(f.BaseURL()))
		if err != nil {
			return nil, err
		}
		return string(self), nil
	default:
		return nil, fmt.Errorf("tcptransport: unknown fabric method %q", req.Method)
	}
}

// fabricCall opens a short-lived session to the reserved node at addr and
// performs one method call — the client half of discovery/advertisement.
func (f *Fabric) fabricCall(addr, method string, payload any) (string, error) {
	s, err := f.dialSession(trimScheme(addr), fabricNode)
	if err != nil {
		return "", fmt.Errorf("tcptransport: reaching fabric at %s: %w", addr, err)
	}
	defer f.pool.Discard(s)
	out, err, _ := s.Do(f.BaseURL(), method, payload)
	if err != nil {
		return "", err
	}
	doc, _ := out.(string)
	return doc, nil
}

// Advertise announces this fabric's locally served nodes to the peer
// fabric at peerAddr (so the peer can route calls back here) and returns
// the peer's own node list for symmetric route setup.
func (f *Fabric) Advertise(peerAddr string) ([]string, error) {
	self, err := json.Marshal(f.SelfDoc(f.BaseURL()))
	if err != nil {
		return nil, err
	}
	raw, err := f.fabricCall(peerAddr, "_advertise", string(self))
	if err != nil {
		return nil, fmt.Errorf("tcptransport: advertising to %s: %w", peerAddr, err)
	}
	var doc streamcore.Doc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		return nil, err
	}
	f.Record(doc)
	return doc.Nodes, nil
}

// Discover fetches the node inventory of the fabric at addr, adds a route
// for every node it serves, and records its advertised capabilities — the
// client-side entry point for capability negotiation.
func (f *Fabric) Discover(addr string) ([]string, error) {
	raw, err := f.fabricCall(addr, "_nodes", nil)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listing nodes at %s: %w", addr, err)
	}
	var doc streamcore.Doc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		return nil, err
	}
	// Route through the address this fabric actually reached the peer at:
	// behind NAT the advertised one may be unreachable from here.
	doc.BaseURL = addr
	f.Record(doc)
	return doc.Nodes, nil
}
