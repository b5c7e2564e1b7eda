package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Cross-tier session tracing. A trace ID is minted client-side at
// check-in, rides the wire as a cold field on the session-control
// messages (CheckinRequest/Response, JoinRequest, RouteRequest), and
// every tier records spans against it in a bounded per-process ring.
// Trace ID 0 means "untraced": older peers whose decoder drops the field
// degrade to it automatically, and RecordSpan on trace 0 is a no-op.
// The ring is exported as JSON from the obs endpoint (/trace) and
// stitched across tiers by `papaya trace`.

// Span is one recorded stage of a traced session on one node: the stage
// name (checkin, download, train, report, chunk, aggregate, ...), where
// it ran, and when.
type Span struct {
	// Trace is the session's trace ID (nonzero; 0 is never recorded).
	Trace uint64 `json:"trace"`
	// Tier is the recording tier: client, selector, or aggregator.
	Tier string `json:"tier"`
	// Node is the recording node's name (agg-0, sel-1, client-17).
	Node string `json:"node"`
	// Name is the stage: checkin, join, download, train, report,
	// chunk, aggregate, reap, route/<method>, ...
	Name string `json:"name"`
	// Task is the task the session belongs to, when known.
	Task string `json:"task,omitempty"`
	// Session is the aggregator-issued session ID, when known.
	Session uint64 `json:"session,omitempty"`
	// StartUnixNano is the span's start time (wall clock).
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationNanos is how long the stage took.
	DurationNanos int64 `json:"duration_nanos"`
	// Err carries the stage's failure, empty on success.
	Err string `json:"err,omitempty"`
}

// SpanRing is a bounded, concurrency-safe ring of spans: constant
// memory per process no matter how many sessions run. When full, new
// spans overwrite the oldest.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// DefaultSpanRingSize bounds the process-global ring: enough for
// hundreds of recent sessions (a session is ~6+N spans) without
// unbounded growth on a long-lived node.
const DefaultSpanRingSize = 4096

// NewSpanRing returns a ring holding at most n spans (n < 1 is clamped
// to 1).
func NewSpanRing(n int) *SpanRing {
	if n < 1 {
		n = 1
	}
	return &SpanRing{buf: make([]Span, n)}
}

var defaultRing = NewSpanRing(DefaultSpanRingSize)

// Spans returns the process-global span ring served at /trace.
func Spans() *SpanRing { return defaultRing }

// Record appends one span, overwriting the oldest when full. Spans with
// Trace == 0 (untraced) are dropped.
func (r *SpanRing) Record(s Span) {
	if s.Trace == 0 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans in record order, filtered to one
// trace when trace != 0 (all retained spans otherwise).
func (r *SpanRing) Snapshot(trace uint64) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ordered []Span
	if r.full {
		ordered = append(ordered, r.buf[r.next:]...)
		ordered = append(ordered, r.buf[:r.next]...)
	} else {
		ordered = append(ordered, r.buf[:r.next]...)
	}
	if trace == 0 {
		return ordered
	}
	out := ordered[:0]
	for _, s := range ordered {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// Len returns how many spans are currently retained.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

var traceSeq atomic.Uint64

// NextTraceID mints a nonzero trace ID for a client's next session
// attempt: the client ID in the high bits, a process-wide sequence in
// the low 24, so IDs from concurrent clients in one loadtest process
// never collide and a human can read the client back out of the hex
// form.
func NextTraceID(clientID int64) uint64 {
	id := uint64(clientID)<<24 | (traceSeq.Add(1) & 0xFFFFFF)
	if id == 0 {
		id = 1
	}
	return id
}

// RecordSpan records one completed stage into the process-global ring.
// It is a no-op for trace 0, so untraced sessions cost
// one branch.
func RecordSpan(trace uint64, tier, node, name, task string, session uint64, start time.Time, d time.Duration, errText string) {
	if trace == 0 {
		return
	}
	defaultRing.Record(Span{
		Trace:         trace,
		Tier:          tier,
		Node:          node,
		Name:          name,
		Task:          task,
		Session:       session,
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
		Err:           errText,
	})
}
