// Package httptransport is the networked transport.Fabric: the same
// Coordinator/Aggregator/Selector control plane that runs over the
// in-memory Network in tests serves real traffic across OS processes and
// machines here, over plain stdlib net/http with the versioned wire codec
// (internal/transport/wire). This is the deployment step the paper takes
// for granted — PAPAYA's Section 4 components are data-center services —
// and the repo's ROADMAP names as the north star.
//
// One Fabric instance backs one process: nodes registered locally are
// served from this process's HTTP listener; calls to any other node are
// routed by name through a route table (name -> peer base URL) populated
// either statically (AddRoute) or by peers announcing themselves
// (Advertise). Every call — even node-to-node within one process — crosses
// the real HTTP stack, so a single-process deployment exercises exactly the
// code paths a multi-host one does.
//
// Every call rides a streaming session: one long-lived full-duplex POST
// to /papaya/v2/stream/{node} carrying pipelined wire.Binary frames (see
// httpstream.go and internal/transport/streamcore). Fabric.Call reuses
// pooled sessions; OpenSession pins one per participation session. Peers
// exchange discovery documents (GET /papaya/v2/nodes, POST
// /papaya/v2/advertise) that carry routes and wire.Capabilities.
//
// The fabric also implements transport.FaultInjector with the in-memory
// backend's semantics (crashes, partitions, probabilistic drops, fixed
// latency), which is what lets the server conformance suite run the
// Appendix E.4 failure drills unchanged against both backends. Injected
// faults are per-fabric (this process's view); between real processes, a
// dead peer surfaces as a connection error and maps onto the same
// transport.ErrCrashed that components already retry through.
package httptransport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/streamcore"
)

// Compile-time interface checks against the contracts in internal/transport.
var (
	_ transport.Fabric        = (*Fabric)(nil)
	_ transport.FaultInjector = (*Fabric)(nil)
)

// apiPrefix roots every route the fabric serves.
const apiPrefix = "/papaya/v2"

// Options configures a Fabric.
type Options struct {
	// Listen is the TCP listen address (e.g. "127.0.0.1:8070"; port 0
	// picks a free port).
	Listen string
	// Codec names the wire codec. Only "" and "bin" are accepted; New
	// rejects anything else.
	//
	// Deprecated: wire.Binary is the only codec; leave the field empty.
	Codec string
	// AdvertiseURL is the base URL peers should use to reach this fabric.
	// Defaults to "http://<bound address>", which is correct on localhost;
	// set it explicitly when listening on 0.0.0.0 behind NAT or a proxy.
	AdvertiseURL string
	// Stream is ignored: every call rides a streaming session.
	//
	// Deprecated: leave the field unset.
	Stream bool
	// AckElide lets this fabric's sessions send no-ack frames toward
	// peers that advertised the ack-elide capability
	// (wire.Capabilities.AckElide): non-final upload chunks ride the
	// stream unanswered and coalesce into batched writes. Off, every call
	// keeps its per-frame acknowledgement. Serving no-ack frames is
	// unconditional — the knob only governs what this fabric sends.
	AckElide bool
	// Seed seeds the probabilistic-loss RNG (SetLoss); 0 is a valid seed.
	Seed int64
	// CallTimeout bounds one RPC end to end (default 30s). The in-memory
	// fabric always returns, and every failover path is built on calls
	// failing fast — a blackholed peer must surface as an error, not a
	// stuck heartbeat loop that hangs shutdown.
	CallTimeout time.Duration
}

// Stats is the shared traffic-counter document (transport.Stats): outbound
// calls, request bytes written and response bytes read. The loadtest
// reports them as "bytes moved".
type Stats = transport.Stats

// Fabric is the HTTP-backed transport.Fabric for one process. It is safe
// for concurrent use.
type Fabric struct {
	baseURL string
	srv     *http.Server
	ln      net.Listener
	// client issues discovery and advertisement requests.
	client *http.Client
	// streamClient issues the long-lived stream POSTs. It shares the
	// pooled *http.Transport with client but has no overall timeout — a
	// stream lives for a whole session; per-call deadlines are enforced by
	// the session engine instead.
	streamClient *http.Client
	callTimeout  time.Duration
	ackElide     bool

	// Table holds the served nodes, routes (node -> peer base URL), peer
	// capabilities and injected faults; its methods (Register, AddRoute,
	// Nodes, Routes, PeerCapabilities, the FaultInjector surface) are the
	// fabric's.
	streamcore.Table

	// counters feed Stats; the shared stream engine updates them.
	counters streamcore.Counters

	// pool caches idle stream sessions per "<peer base URL>|<node>" key
	// (any caller may reuse one — the frame carries From) and tracks every
	// live fabric-opened session so Close can tear them down.
	pool *streamcore.Pool

	closeOnce sync.Once
}

// New binds the listener and starts serving. The returned fabric is ready
// for Register/Call immediately; Close releases the port.
func New(opts Options) (*Fabric, error) {
	if opts.Codec != "" && opts.Codec != "bin" {
		return nil, fmt.Errorf("httptransport: wire codec %q: bin is the only codec", opts.Codec)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("httptransport: listen %s: %w", opts.Listen, err)
	}
	baseURL := opts.AdvertiseURL
	if baseURL == "" {
		baseURL = "http://" + ln.Addr().String()
	}
	callTimeout := opts.CallTimeout
	if callTimeout == 0 {
		callTimeout = 30 * time.Second
	}
	// One pooled *http.Transport per fabric with a generous idle pool: the
	// control plane makes many small concurrent calls to few hosts, the
	// worst case for net/http's default 2-per-host idle cap.
	tr := &http.Transport{MaxIdleConnsPerHost: 64, MaxIdleConns: 256}
	f := &Fabric{
		baseURL:      baseURL,
		ln:           ln,
		callTimeout:  callTimeout,
		ackElide:     opts.AckElide,
		pool:         streamcore.NewPool(maxIdleStreamsPerPeer),
		client:       &http.Client{Transport: tr, Timeout: callTimeout},
		streamClient: &http.Client{Transport: tr},
	}
	f.Init(baseURL, nil, opts.Seed)
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+apiPrefix+"/nodes", f.handleNodes)
	mux.HandleFunc("POST "+apiPrefix+"/advertise", f.handleAdvertise)
	mux.HandleFunc("POST "+apiPrefix+"/stream/{node}", f.handleStream)
	f.srv = &http.Server{Handler: mux}
	go func() { _ = f.srv.Serve(ln) }()
	return f, nil
}

// BaseURL returns the URL peers use to reach this fabric.
func (f *Fabric) BaseURL() string { return f.baseURL }

// Stats returns a snapshot of the fabric's traffic counters.
func (f *Fabric) Stats() Stats { return f.counters.Snapshot() }

// Close stops serving, tears down live stream sessions, and closes idle
// connections. It is idempotent.
func (f *Fabric) Close() error {
	var err error
	f.closeOnce.Do(func() {
		f.pool.Close()
		err = f.srv.Close()
		f.client.CloseIdleConnections()
	})
	return err
}

// Call implements transport.Fabric: fault checks mirror the in-memory
// Network's order, then one frame over a pooled streaming session
// (streamcore.Pool.Call) to wherever the callee lives — through the
// loopback listener when it is this same process, so every call exercises
// the full wire path.
func (f *Fabric) Call(from, to, method string, payload any) (any, error) {
	target, _, err := f.Resolve(from, to, method)
	if err != nil {
		return nil, err
	}
	return f.pool.Call(target+"|"+to, func() (*streamcore.Session, error) {
		s, err := f.openStreamSession(target, to)
		if err != nil {
			return nil, fmt.Errorf("%s unreachable: %w", to, err)
		}
		return s, nil
	}, from, method, payload)
}

// maxFrameBytes bounds one stream frame in either direction (64 MiB ≈ a
// 16M-parameter checkpoint frame), so a hostile length prefix cannot force
// a huge allocation.
const maxFrameBytes = 64 << 20

func (f *Fabric) handleNodes(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(f.SelfDoc(f.baseURL))
}

func (f *Fabric) handleAdvertise(w http.ResponseWriter, r *http.Request) {
	var doc streamcore.Doc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		http.Error(w, "decoding advertisement: "+err.Error(), http.StatusBadRequest)
		return
	}
	if doc.BaseURL == "" {
		http.Error(w, "advertisement missing base_url", http.StatusBadRequest)
		return
	}
	f.Record(doc)
	f.handleNodes(w, r)
}

// Advertise announces this fabric's locally served nodes to the peer fabric
// at peerURL, so the peer can route calls back here (an agent process
// announcing its Aggregator to the coordinator process), and returns the
// peer's own node list for symmetric route setup.
func (f *Fabric) Advertise(peerURL string) ([]string, error) {
	body, err := json.Marshal(f.SelfDoc(f.baseURL))
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Post(peerURL+apiPrefix+"/advertise", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("httptransport: advertising to %s: %w", peerURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("httptransport: advertise to %s: HTTP %d: %s", peerURL, resp.StatusCode, msg)
	}
	var doc streamcore.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	f.Record(doc)
	return doc.Nodes, nil
}

// Discover fetches the node inventory of the fabric at baseURL, adds a
// route for every node it serves, and records its advertised capabilities
// — the client-side entry point for capability negotiation.
func (f *Fabric) Discover(baseURL string) ([]string, error) {
	resp, err := f.client.Get(baseURL + apiPrefix + "/nodes")
	if err != nil {
		return nil, fmt.Errorf("httptransport: listing nodes at %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("httptransport: list nodes at %s: HTTP %d: %s", baseURL, resp.StatusCode, msg)
	}
	var doc streamcore.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	// Route through the URL this fabric actually reached the peer at, not
	// the peer's advertised base URL: behind port forwarding or NAT the
	// advertised address may be unreachable from here. Capabilities are
	// keyed the same way, so negotiation agrees with routing.
	doc.BaseURL = baseURL
	f.Record(doc)
	return doc.Nodes, nil
}
