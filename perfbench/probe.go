package main

import (
	"time"

	"repro/internal/transport"
)

// probe receives what a traced fabric observes. Decorators call it after
// each operation returns; it must be safe for the concurrency of the
// fabric it is attached to.
type probe interface {
	// handled reports one handler invocation on a registered node.
	handled(node, method string, payload, out any, d time.Duration)
	// called reports one outgoing call: Fabric.Call, Session.Call, or
	// (noAck) ElidingSession.SendNoAck.
	called(from, method string, payload any, err error, noAck bool, d time.Duration)
	// opened reports one OpenSession, which dials a connection.
	opened(from string, d time.Duration)
}

// wrapFabric decorates f so every call, handler and session on it reports
// to p. The result keeps the optional interfaces f implements: it is a
// transport.StreamFabric exactly when f is, and the sessions it opens are
// transport.ElidingSessions exactly when f's are. Dropping either would
// silently move traced runs onto per-call or acked paths.
func wrapFabric(f transport.Fabric, p probe) transport.Fabric {
	tf := &tracedFabric{inner: f, p: p}
	if sf, ok := f.(transport.StreamFabric); ok {
		return &tracedStreamFabric{tracedFabric: tf, sf: sf}
	}
	return tf
}

type tracedFabric struct {
	inner transport.Fabric
	p     probe
}

func (f *tracedFabric) Call(from, to, method string, payload any) (any, error) {
	start := time.Now()
	out, err := f.inner.Call(from, to, method, payload)
	f.p.called(from, method, payload, err, false, time.Since(start))
	return out, err
}

func (f *tracedFabric) Register(name string, h transport.Handler) {
	f.inner.Register(name, func(method string, payload any) (any, error) {
		start := time.Now()
		out, err := h(method, payload)
		f.p.handled(name, method, payload, out, time.Since(start))
		return out, err
	})
}

func (f *tracedFabric) Unregister(name string) { f.inner.Unregister(name) }

type tracedStreamFabric struct {
	*tracedFabric
	sf transport.StreamFabric
}

func (f *tracedStreamFabric) OpenSession(from, to string) (transport.Session, error) {
	start := time.Now()
	s, err := f.sf.OpenSession(from, to)
	f.p.opened(from, time.Since(start))
	if err != nil {
		return nil, err
	}
	return wrapSession(s, from, f.p), nil
}

func wrapSession(s transport.Session, from string, p probe) transport.Session {
	ts := &tracedSession{inner: s, from: from, p: p}
	if es, ok := s.(transport.ElidingSession); ok {
		return &tracedElidingSession{tracedSession: ts, es: es}
	}
	return ts
}

type tracedSession struct {
	inner transport.Session
	from  string
	p     probe
}

func (s *tracedSession) Call(method string, payload any) (any, error) {
	start := time.Now()
	out, err := s.inner.Call(method, payload)
	s.p.called(s.from, method, payload, err, false, time.Since(start))
	return out, err
}

func (s *tracedSession) Close() error { return s.inner.Close() }

type tracedElidingSession struct {
	*tracedSession
	es transport.ElidingSession
}

func (s *tracedElidingSession) ElidesAcks() bool { return s.es.ElidesAcks() }

func (s *tracedElidingSession) SendNoAck(method string, payload any) error {
	start := time.Now()
	err := s.es.SendNoAck(method, payload)
	s.p.called(s.from, method, payload, err, true, time.Since(start))
	return err
}
