package streamcore

import (
	"fmt"
	"sync"

	"repro/internal/transport"
)

// Pool is the idle-session cache both networked fabrics used to duplicate:
// healthy sessions park per (address, node) key for reuse by Fabric.Call,
// every live session is tracked so fabric Close can tear them all down,
// and the idle cap bounds what survives a burst.
type Pool struct {
	mu      sync.Mutex
	closed  bool
	maxIdle int
	idle    map[string][]*Session
	all     map[*Session]struct{}
}

// NewPool creates a pool keeping at most maxIdle idle sessions per key.
func NewPool(maxIdle int) *Pool {
	return &Pool{
		maxIdle: maxIdle,
		idle:    make(map[string][]*Session),
		all:     make(map[*Session]struct{}),
	}
}

// Take pops a cached idle session for key, or returns nil when the caller
// should open a fresh one.
func (p *Pool) Take(key string) *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idle := p.idle[key]; len(idle) > 0 {
		s := idle[len(idle)-1]
		p.idle[key] = idle[:len(idle)-1]
		return s
	}
	return nil
}

// Track registers a freshly opened session for Close bookkeeping. It
// reports false when the pool already closed — the session lost the race
// against fabric Close and the caller must tear it down (a session
// registered now would never be torn down; Close already snapshotted).
func (p *Pool) Track(s *Session) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.all[s] = struct{}{}
	return true
}

// Release returns a healthy session to the idle cache; broken, closed, or
// over-cap sessions are discarded instead.
func (p *Pool) Release(key string, s *Session) {
	if s.Broken() || s.Closed() {
		p.Discard(s)
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle[key]) < p.maxIdle {
		p.idle[key] = append(p.idle[key], s)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.Discard(s)
}

// Discard forgets a session and tears it down for good.
func (p *Pool) Discard(s *Session) {
	p.mu.Lock()
	delete(p.all, s)
	p.mu.Unlock()
	s.Teardown()
}

// Close marks the pool closed and tears down every tracked session. It is
// idempotent; sessions opened after Close fail Track and never register.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	sessions := make([]*Session, 0, len(p.all))
	for s := range p.all {
		sessions = append(sessions, s)
	}
	p.all = make(map[*Session]struct{})
	p.idle = make(map[string][]*Session)
	p.mu.Unlock()
	for _, s := range sessions {
		s.Teardown()
	}
}

// Call sends one call over a pooled session for key, opening a fresh one
// with open when none is idle. A stale pooled session (the peer restarted
// since it was pooled) whose failure happened before any bytes went out
// is discarded and the call retried on another connection. Once bytes may
// have reached the peer the call is never resent (at-most-once): the error
// surfaces and the caller's failover owns the retry decision. An open
// failure surfaces as transport.ErrCrashed.
func (p *Pool) Call(key string, open func() (*Session, error), from, method string, payload any) (any, error) {
	for {
		s, fresh := p.Take(key), false
		if s == nil {
			var err error
			if s, err = open(); err != nil {
				return nil, fmt.Errorf("%w: %v", transport.ErrCrashed, err)
			}
			fresh = true
		}
		out, err, wrote := s.Do(from, method, payload)
		if err == nil || !s.Broken() {
			// A success stands even if a racing deadline marked the
			// session broken afterwards, and an application error over a
			// healthy session keeps it; Release keeps or discards
			// accordingly.
			p.Release(key, s)
			return out, err
		}
		p.Discard(s)
		if !fresh && !wrote {
			continue // stale pooled conn, nothing sent: safe to retry
		}
		return nil, err
	}
}

// Bound is a transport.Session pinned to a (from, to) pair over a
// dedicated Session — one connection per participation session. check
// runs the owning fabric's injected-fault checks before every call, elided
// or not, so fault parity holds frame by frame.
type Bound struct {
	pool     *Pool
	s        *Session
	from, to string
	elide    bool
	check    func(from, to, method string) error
	closed   bool
}

var _ transport.ElidingSession = (*Bound)(nil)

// NewBound pins s, a session p tracks, to the (from, to) pair. elide
// reports whether the session may send no-ack frames (this fabric opted in
// and the peer advertised the capability).
func NewBound(p *Pool, s *Session, from, to string, elide bool, check func(from, to, method string) error) *Bound {
	return &Bound{pool: p, s: s, from: from, to: to, elide: elide, check: check}
}

// Call implements transport.Session.
func (b *Bound) Call(method string, payload any) (any, error) {
	if b.closed {
		return nil, fmt.Errorf("%w: session closed", transport.ErrCrashed)
	}
	if err := b.check(b.from, b.to, method); err != nil {
		return nil, err
	}
	out, err, _ := b.s.Do(b.from, method, payload)
	return out, err
}

// ElidesAcks implements transport.ElidingSession.
func (b *Bound) ElidesAcks() bool { return b.elide && !b.closed }

// SendNoAck implements transport.ElidingSession: the fault checks run,
// then the no-ack frame queues to coalesce into the session's next flush.
func (b *Bound) SendNoAck(method string, payload any) error {
	if b.closed {
		return fmt.Errorf("%w: session closed", transport.ErrCrashed)
	}
	if err := b.check(b.from, b.to, method); err != nil {
		return err
	}
	return b.s.SendNoAck(b.from, method, payload)
}

// Close implements transport.Session; closing the connection is the
// server's signal that the session ended (dead clients are instead reaped
// by the aggregator's session TTL).
func (b *Bound) Close() error {
	if !b.closed {
		b.closed = true
		b.pool.Discard(b.s)
	}
	return nil
}
