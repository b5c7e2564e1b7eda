package streamcore

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Doc is the discovery document fabrics exchange at discovery and
// advertisement: which nodes a fabric serves, where, the routes it has
// learned, and what it is capable of. The capability fields are the
// negotiation surface of wire versioning rule 4; the zero value means "no
// optional behaviour".
type Doc struct {
	// BaseURL is the advertising fabric's address as peers dial it.
	BaseURL string `json:"base_url"`
	// Nodes lists the fabric's locally served node names.
	Nodes []string `json:"nodes"`
	// Routes gossips the remote routes the fabric has learned (node name
	// -> address of the fabric serving it), making discovery transitive:
	// a selector that discovers only the coordinator still learns where
	// every advertised aggregator lives. Receivers treat it as
	// best-effort hints — local registrations always win.
	Routes map[string]string `json:"routes,omitempty"`
	wire.Capabilities
}

// Table is the node bookkeeping both networked fabrics share: locally
// served handlers, routes to remote nodes, peers' capability documents,
// and the injected-fault table (promoted, so a fabric embedding Table
// implements transport.FaultInjector). Addresses pass through the norm
// function given to Init before they are stored or looked up.
type Table struct {
	// Faults is the injected-fault table, with the in-memory Network's
	// semantics.
	transport.Faults

	self string
	norm func(string) string

	mu       sync.RWMutex
	local    map[string]transport.Handler
	routes   map[string]string            // node name -> peer address
	peerCaps map[string]wire.Capabilities // peer address -> capabilities
}

// Init prepares the table for a fabric reachable at self. norm maps an
// address as peers write it to the form the fabric stores (nil keeps it
// as is); seed seeds the probabilistic-loss RNG.
func (t *Table) Init(self string, norm func(string) string, seed int64) {
	if norm == nil {
		norm = func(s string) string { return s }
	}
	t.self, t.norm = norm(self), norm
	t.local = make(map[string]transport.Handler)
	t.routes = make(map[string]string)
	t.peerCaps = make(map[string]wire.Capabilities)
	t.InitFaults(seed)
}

// Register attaches a node served from this process. Re-registering a
// name replaces its handler and clears any crash marker (a restarted
// process).
func (t *Table) Register(name string, h transport.Handler) {
	if h == nil {
		panic("streamcore: nil handler")
	}
	t.mu.Lock()
	t.local[name] = h
	t.mu.Unlock()
	t.ClearCrash(name)
}

// Unregister detaches a locally served node.
func (t *Table) Unregister(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.local, name)
}

// AddRoute teaches the table that node lives at a peer fabric's address.
func (t *Table) AddRoute(node, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[node] = t.norm(addr)
}

// Nodes returns the locally served, non-crashed node names, sorted.
func (t *Table) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.local))
	for name := range t.local {
		if !t.Crashed(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Routes returns a copy of the remote routes the table knows (node name
// -> stored address), from AddRoute, discovery exchanges, and gossip.
func (t *Table) Routes() map[string]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]string, len(t.routes))
	for node, addr := range t.routes {
		out[node] = addr
	}
	return out
}

// PeerCapabilities returns what the fabric at addr advertised (the zero
// value for unknown peers).
func (t *Table) PeerCapabilities(addr string) wire.Capabilities {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.peerCaps[t.norm(addr)]
}

// Resolve finds where to reach to and applies the injected-fault checks
// in the in-memory Network's order (unknown node first, then the fault
// table). Every call and every session frame runs through it, so fault
// parity holds frame by frame.
func (t *Table) Resolve(from, to, method string) (addr string, isLocal bool, err error) {
	t.mu.RLock()
	_, isLocal = t.local[to]
	addr = t.routes[to]
	t.mu.RUnlock()
	if isLocal {
		addr = t.self
	}
	if addr == "" {
		return "", false, fmt.Errorf("%w: %s", transport.ErrUnknownNode, to)
	}
	if err := t.CheckCall(from, to, method); err != nil {
		return "", false, err
	}
	return addr, isLocal, nil
}

// Check is Resolve's fault checks alone, the check a pinned session runs
// before every call.
func (t *Table) Check(from, to, method string) error {
	_, _, err := t.Resolve(from, to, method)
	return err
}

// Elides reports whether the peer at addr accepts no-ack frames. Locally
// served nodes run this build; an undiscovered peer's zero-value document
// keeps every call acknowledged.
func (t *Table) Elides(addr string, isLocal bool) bool {
	return isLocal || t.PeerCapabilities(addr).AckElide
}

// Invoke runs the server-side fault checks and the handler for one decoded
// request addressed to node — the dispatch every stream frame takes.
// Handler panics become application errors tagged with prefix: network
// peers are untrusted, and a well-formed frame carrying the wrong
// registered type for a method must not crash the process.
func (t *Table) Invoke(node string, req *wire.Request, prefix string) *wire.Response {
	t.mu.RLock()
	h, ok := t.local[node]
	t.mu.RUnlock()
	switch {
	case !ok:
		return &wire.Response{Kind: transport.KindUnknownNode, Err: node}
	case t.Crashed(node):
		return &wire.Response{Kind: transport.KindCrashed, Err: node}
	case t.Cut(req.From, node):
		return &wire.Response{Kind: transport.KindPartitioned, Err: req.From + " <-> " + node}
	}
	out, err := safeInvoke(h, req.Method, req.Payload, prefix)
	if err != nil {
		return &wire.Response{Kind: transport.ErrorToKind(err), Err: err.Error()}
	}
	return &wire.Response{Payload: out}
}

func safeInvoke(h transport.Handler, method string, payload any, prefix string) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: handler panic on %q: %v", prefix, method, r)
		}
	}()
	return h(method, payload)
}

// SelfDoc is this fabric's discovery document, advertised as baseURL.
func (t *Table) SelfDoc(baseURL string) Doc {
	return Doc{
		BaseURL:      baseURL,
		Nodes:        t.Nodes(),
		Routes:       t.Routes(),
		Capabilities: wire.Capabilities{AckElide: true},
	}
}

// Record stores a peer's routes and advertised capabilities. Routes the
// peer gossiped about third-party fabrics are adopted as-is (newest
// gossip wins, so a node that moved is re-learned on the next exchange);
// nodes served locally, and routes pointing back at this fabric, are
// skipped.
func (t *Table) Record(doc Doc) {
	peer := t.norm(doc.BaseURL)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, node := range doc.Nodes {
		t.routes[node] = peer
	}
	for node, addr := range doc.Routes {
		addr = t.norm(addr)
		if _, isLocal := t.local[node]; !isLocal && addr != t.self {
			t.routes[node] = addr
		}
	}
	t.peerCaps[peer] = doc.Capabilities
}
