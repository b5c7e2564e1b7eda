package server

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/compress"
	"repro/internal/fedopt"
	"repro/internal/secagg"
	"repro/internal/task"
	"repro/internal/transport"
	"repro/internal/vecf"
	"repro/internal/vecpool"
)

// sessionState tracks one client's virtual session on a task.
type sessionState struct {
	clientID     int64
	startVersion int
	abortReason  string // "" while live; guarded by the task mutex
	// trace is the session's cross-tier trace ID (internal/obs), set
	// once at join and immutable after — readable without a lock. 0
	// means untraced.
	trace uint64

	// Upload assembly runs under the session's own mutex, never the
	// task's: chunk copies for different sessions proceed fully in
	// parallel, which is what un-serializes the upload hot path (the
	// whole-task mutex used to cover every byte of every copy).
	// Reassembly vectors are leased from internal/vecpool and returned
	// when the session ends.
	mu        sync.Mutex
	closed    bool
	pending   []float32
	pendingGp []uint32
	received  int
	// lastActive is the session's most recent client activity (join,
	// download, report, chunk), driving the Timings.SessionTTL reaper.
	lastActive time.Time
}

// touch records client activity on the session.
func (s *sessionState) touch(now time.Time) {
	s.mu.Lock()
	s.lastActive = now
	s.mu.Unlock()
}

// idleSince reports the session's last activity time.
func (s *sessionState) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive
}

// addChunk copies one chunk into the session's reassembly buffer under the
// session mutex. A non-nil response is a rejection. Coverage is tracked as
// the contiguous prefix of received elements, which makes duplicate chunks
// idempotent: a client that re-sends an upload from offset 0 (the restart
// path when an ack-eliding stream breaks mid-train) re-copies identical
// data without inflating the received count, while a gap still fails
// finishUpload's completeness check.
func (s *sessionState) addChunk(c *UploadChunk, useSecAgg bool, numParams int) *UploadResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return &UploadResponse{OK: false, Reason: "unknown session"}
	}
	s.lastActive = time.Now()
	var n int
	if useSecAgg {
		if s.pendingGp == nil {
			s.pendingGp = vecpool.GetUints(numParams + 1)
		}
		if c.Offset < 0 || c.Offset+len(c.Masked) > len(s.pendingGp) {
			return &UploadResponse{OK: false, Reason: "chunk out of bounds"}
		}
		copy(s.pendingGp[c.Offset:], c.Masked)
		n = len(c.Masked)
	} else {
		if s.pending == nil {
			s.pending = vecpool.GetFloats(numParams)
		}
		if c.Offset < 0 || c.Offset+len(c.Data) > len(s.pending) {
			return &UploadResponse{OK: false, Reason: "chunk out of bounds"}
		}
		copy(s.pending[c.Offset:], c.Data)
		n = len(c.Data)
	}
	if end := c.Offset + n; c.Offset <= s.received && end > s.received {
		s.received = end
	}
	return nil
}

// take detaches the reassembly buffers for aggregation, closing the
// session against further chunk copies. Exactly one caller wins: a
// duplicate Done chunk (or a concurrent close) observes ok=false, so a
// session's update can never be aggregated twice or its buffers released
// twice.
func (s *sessionState) take() (pending []float32, pendingGp []uint32, received int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, 0, false
	}
	s.closed = true
	pending, pendingGp, received = s.pending, s.pendingGp, s.received
	s.pending, s.pendingGp = nil, nil
	return pending, pendingGp, received, true
}

// close releases the session's leased buffers back to the pool. Idempotent
// and safe against in-flight chunk copies: the buffers are detached under
// the session mutex before being released, and late copies observe closed.
func (s *sessionState) close() {
	s.mu.Lock()
	s.closed = true
	pending, pendingGp := s.pending, s.pendingGp
	s.pending, s.pendingGp = nil, nil
	s.mu.Unlock()
	vecpool.PutFloats(pending)
	vecpool.PutUints(pendingGp)
}

// taskState is a task's runtime state on its owning aggregator. Aggregators
// are persistent and stateful (Section 6.3): the task stays here until the
// Coordinator moves it.
type taskState struct {
	mu   sync.Mutex
	spec TaskSpec
	seq  uint64

	params []float32
	buf    *buffer.Buffered
	secAgg *secagg.Aggregator
	// m is the task's release state machine, shared with the simulator.
	// Guarded by mu: the exactly-one-finisher invariant serializes
	// releases for the non-concurrency-safe DP accountant.
	m *task.Machine
	// scratch receives buffer releases (ReleaseInto), so a server step
	// allocates nothing model-sized. Guarded by mu like params.
	scratch []float32

	sessions    map[uint64]*sessionState
	nextSession uint64
	updates     int64 // client updates received

	// dpEpsilonBits caches the cumulative epsilon as math.Float64bits,
	// written under mu at each release and read lock-free by the
	// scrape-time papaya_dp_epsilon gauge.
	dpEpsilonBits atomic.Uint64

	// lastClose and closeEWMAms feed the RetryAfterMs hint on join
	// rejections: the EWMA of intervals between session closes estimates
	// how soon a slot frees up when the task sits at max concurrency.
	lastClose   time.Time
	closeEWMAms float64
}

// dropSessionLocked removes a session from the table and feeds the
// close-interval EWMA behind the join-rejection backoff hint. Caller holds
// ts.mu.
func (ts *taskState) dropSessionLocked(id uint64) {
	delete(ts.sessions, id)
	now := time.Now()
	if !ts.lastClose.IsZero() {
		iv := float64(now.Sub(ts.lastClose)) / float64(time.Millisecond)
		if ts.closeEWMAms == 0 {
			ts.closeEWMAms = iv
		} else {
			ts.closeEWMAms = 0.8*ts.closeEWMAms + 0.2*iv
		}
	}
	ts.lastClose = now
}

// retryAfterLocked returns the backoff hint for a join rejection, clamped
// to [1ms, 5s]; 0 when no close interval has been observed yet (no
// signal — the client keeps its own jittered backoff). Caller holds ts.mu.
func (ts *taskState) retryAfterLocked() int {
	if ts.closeEWMAms == 0 {
		return 0
	}
	ms := int(ts.closeEWMAms + 0.5)
	if ms < 1 {
		ms = 1
	}
	if ms > 5000 {
		ms = 5000
	}
	return ms
}

func newTaskState(req AssignTaskRequest) (*taskState, error) {
	spec := req.Spec
	shards := spec.AggShards
	if shards == 0 {
		shards = 8
	}
	// A task's preferred upload codec must exist in this build's registry,
	// or every negotiated upload would fail at decode time; reject the
	// placement instead so create-task surfaces the typo.
	if spec.Compress != "" && spec.Compress != "none" {
		if _, err := compress.ByName(spec.Compress); err != nil {
			return nil, err
		}
	}
	// Same placement-time validation for the aggregation rule: an unknown
	// rule would otherwise fail on every upload, so reject it here and let
	// create-task surface the typo.
	agg, err := fedopt.AggregationByName(spec.Aggregation, spec.AggParam)
	if err != nil {
		return nil, err
	}
	// DP is validated at placement like the aggregation rule: a bad block
	// must fail create-task, not every later release. SecAgg is excluded
	// because the server-side sensitivity bound needs a plaintext re-clip
	// after dequantize, which masked uploads never expose.
	if spec.DP != nil {
		if err := spec.DP.Validate(); err != nil {
			return nil, err
		}
		if spec.SecAgg != nil {
			return nil, fmt.Errorf("server: DP and SecAgg cannot be combined (the server cannot clip masked updates)")
		}
	}
	if spec.SecAgg != nil {
		// A spec that crossed the wire carries an inert deployment recipe;
		// placement is where this host launches its own enclave from it
		// (Section 5 — each aggregator host runs its own TSA).
		live, err := spec.SecAgg.Live()
		if err != nil {
			return nil, err
		}
		spec.SecAgg = live
	}
	m, err := task.New(task.Config{
		Mode:         spec.Mode,
		Goal:         spec.AggregationGoal,
		MaxStaleness: spec.MaxStaleness,
		Aggregation:  agg,
		// A fresh optimizer per placement: its moments are soft state,
		// not preserved across failovers.
		Optimizer: fedopt.DefaultFedAdam(),
		DP:        spec.DP,
		Version:   req.Version,
	})
	if err != nil {
		return nil, err
	}
	ts := &taskState{
		spec:     spec,
		seq:      req.Seq,
		buf:      buffer.New(spec.NumParams, spec.AggregationGoal, shards),
		m:        m,
		sessions: make(map[uint64]*sessionState),
		scratch:  make([]float32, spec.NumParams),
	}
	if req.Checkpoint != nil {
		ts.params = vecf.Clone(req.Checkpoint)
	} else {
		ts.params = vecf.Clone(spec.InitParams)
	}
	if spec.SecAgg != nil {
		ts.secAgg = spec.SecAgg.NewAggregator()
	}
	return ts, nil
}

// Aggregator is a production aggregation node. One Aggregator executes many
// tasks; every task is assigned to exactly one Aggregator (Section 4).
type Aggregator struct {
	name    string
	net     transport.Fabric
	coord   string
	timings Timings

	mu    sync.Mutex
	tasks map[string]*taskState
	// lastCkptVersion tracks, per task, the model version whose checkpoint
	// the coordinator last acknowledged, so heartbeats ship the (possibly
	// large) model only when it moved; beats drives the periodic re-send
	// that covers coordinator restarts (Appendix E.4 recovery).
	lastCkptVersion map[string]int
	beats           uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// obs holds this node's resolved metric children (obsmetrics.go);
	// hot paths touch only its atomics.
	obs *aggObs
}

// NewAggregator registers an aggregator node on the fabric and starts its
// heartbeat loop toward the coordinator (Section 6.2).
func NewAggregator(name string, net transport.Fabric, coordinator string, timings Timings) *Aggregator {
	a := &Aggregator{
		name:            name,
		net:             net,
		coord:           coordinator,
		timings:         timings,
		tasks:           make(map[string]*taskState),
		lastCkptVersion: make(map[string]int),
		stop:            make(chan struct{}),
		obs:             newAggObs(name),
	}
	// Live session count as a lazily-read gauge: summing per-task maps
	// at scrape time costs nothing on the serving path and can never
	// drift from the maps the way an inc/dec pair could.
	obsreg.GaugeFunc("papaya_active_sessions",
		"Currently open virtual sessions.",
		func() float64 { return float64(a.activeSessionCount()) },
		[]string{"node"}, name)
	net.Register(name, a.handle)
	a.wg.Add(1)
	go a.heartbeatLoop()
	return a
}

// Stop halts the heartbeat loop and unregisters the node. It is idempotent.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() {
		close(a.stop)
		a.wg.Wait()
		a.net.Unregister(a.name)
	})
}

func (a *Aggregator) handle(method string, payload any) (any, error) {
	switch method {
	case "assign-task":
		return a.assignTask(payload.(AssignTaskRequest))
	case "drop-task":
		return a.dropTask(payload.(string))
	case "join":
		return a.join(payload.(JoinRequest))
	case "download":
		return a.download(payload.(DownloadRequest))
	case "report":
		return a.report(payload.(ReportRequest))
	case "upload-chunk":
		return a.uploadChunk(payload.(UploadChunk))
	case "fail-session":
		return a.failSession(payload.(FailRequest))
	case "task-info":
		return a.taskInfo(payload.(string))
	case "reconfigure-task":
		return a.reconfigureTask(payload.(ReconfigureRequest))
	default:
		return nil, fmt.Errorf("aggregator %s: unknown method %q", a.name, method)
	}
}

// ReconfigureRequest switches a task between SyncFL and AsyncFL at runtime
// (Appendix E.3: "switching between SyncFL and AsyncFL can be done via a
// configuration change"). The three behaviour changes the paper lists —
// demand computation, stale-client handling, and model aggregation — all
// key off the task's Mode and goal, so the switch is exactly this state
// change.
type ReconfigureRequest struct {
	TaskID          string
	Mode            task.Mode
	AggregationGoal int
	MaxStaleness    int
}

func (a *Aggregator) reconfigureTask(req ReconfigureRequest) (any, error) {
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if err := ts.m.Reconfigure(req.Mode, req.AggregationGoal, req.MaxStaleness); err != nil {
		return nil, fmt.Errorf("aggregator %s: %w", a.name, err)
	}
	// The spec mirrors the policy: heartbeat reports carry it, and a
	// recovering coordinator adopts it (Appendix E.4).
	ts.spec.Mode = req.Mode
	ts.spec.AggregationGoal = req.AggregationGoal
	ts.spec.MaxStaleness = req.MaxStaleness
	ts.buf.SetGoal(req.AggregationGoal)
	return true, nil
}

func (a *Aggregator) assignTask(req AssignTaskRequest) (any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur, ok := a.tasks[req.Spec.ID]; ok {
		if cur.seq >= req.Seq {
			return true, nil // idempotent re-assignment
		}
	}
	ts, err := newTaskState(req)
	if err != nil {
		return nil, fmt.Errorf("aggregator %s: placing task %q: %w", a.name, req.Spec.ID, err)
	}
	a.tasks[req.Spec.ID] = ts
	if ts.m.DP() != nil {
		// Per-task epsilon gauge, sampled lock-free at scrape time from
		// the bits cached at each release; re-placement re-registers the
		// same label tuple, replacing the closure.
		registerDPEpsilonGauge(a.name, req.Spec.ID, func() float64 {
			return math.Float64frombits(ts.dpEpsilonBits.Load())
		})
	}
	return true, nil
}

func (a *Aggregator) dropTask(taskID string) (any, error) {
	a.mu.Lock()
	ts := a.tasks[taskID]
	delete(a.tasks, taskID)
	delete(a.lastCkptVersion, taskID)
	a.mu.Unlock()
	if ts != nil {
		// Return the dropped task's leased session buffers to the pool.
		ts.mu.Lock()
		sessions := make([]*sessionState, 0, len(ts.sessions))
		for _, s := range ts.sessions {
			sessions = append(sessions, s)
		}
		ts.sessions = make(map[uint64]*sessionState)
		ts.mu.Unlock()
		for _, s := range sessions {
			s.close()
		}
		a.obs.sessionsClosed.Add(int64(len(sessions)))
	}
	return true, nil
}

func (a *Aggregator) task(id string) (*taskState, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tasks[id]
	if !ok {
		return nil, fmt.Errorf("aggregator %s: task %q not assigned here", a.name, id)
	}
	return ts, nil
}

// join enforces max concurrency (Appendix E.1) and opens a virtual session.
func (a *Aggregator) join(req JoinRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.m.Exhausted() {
		// The task is complete: its privacy budget cannot cover another
		// release, so new participants would train for nothing.
		a.obs.span(req.TraceID, "join", req.TaskID, 0, start, task.BudgetExhausted)
		return JoinResponse{Accepted: false, Reason: task.BudgetExhausted}, nil
	}
	if len(ts.sessions) >= ts.spec.Concurrency {
		a.obs.span(req.TraceID, "join", req.TaskID, 0, start, "task at max concurrency")
		// The rejection carries the task's own estimate of when a slot
		// frees up, so rejected clients back off for one expected
		// session-close interval instead of hammering the selector.
		return JoinResponse{Accepted: false, Reason: "task at max concurrency", RetryAfterMs: ts.retryAfterLocked()}, nil
	}
	ts.nextSession++
	id := ts.nextSession
	ts.sessions[id] = &sessionState{clientID: req.ClientID, startVersion: ts.m.Version(), lastActive: time.Now(), trace: req.TraceID}
	a.obs.sessionsOpened.Inc()
	a.obs.span(req.TraceID, "join", req.TaskID, id, start, "")
	return JoinResponse{Accepted: true, SessionID: id, Version: ts.m.Version()}, nil
}

func (a *Aggregator) download(req DownloadRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s, ok := ts.sessions[req.SessionID]
	if !ok {
		return nil, fmt.Errorf("aggregator %s: unknown session %d", a.name, req.SessionID)
	}
	s.touch(time.Now())
	// The client trains against the model version it joined with; if the
	// model moved between join and download, restart the session at the
	// current version (equivalent to AFL's version check).
	s.startVersion = ts.m.Version()
	// The snapshot is leased from the pool: over a networked fabric the
	// transport returns it once the response frame is encoded
	// (wire.ResponseBufferLease); the in-memory fabric hands the caller a
	// plain copy and releases it (wire.ResponseSnapshot), so every backend
	// balances the lease.
	params := vecpool.GetFloats(len(ts.params))
	copy(params, ts.params)
	a.obs.span(s.trace, "download", req.TaskID, req.SessionID, start, "")
	return DownloadResponse{Params: params, Version: ts.m.Version()}, nil
}

// report hands the client its upload configuration (participation stage 3),
// including the SecAgg bundle when the task runs with secure aggregation.
func (a *Aggregator) report(req ReportRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	s, ok := ts.sessions[req.SessionID]
	if !ok {
		ts.mu.Unlock()
		return ReportResponse{OK: false, Reason: "unknown session"}, nil
	}
	s.touch(time.Now())
	if reason := s.abortReason; reason != "" {
		ts.dropSessionLocked(req.SessionID)
		ts.mu.Unlock()
		s.close()
		a.obs.sessionsClosed.Inc()
		a.obs.span(s.trace, "report", req.TaskID, req.SessionID, start, reason)
		return ReportResponse{OK: false, Reason: reason}, nil
	}
	chunk := ts.spec.UploadChunkSize
	if chunk <= 0 {
		chunk = 4096
	}
	resp := ReportResponse{
		OK:             true,
		ChunkSize:      chunk,
		CurrentVersion: ts.m.Version(),
		// Upload-compression negotiation: the task's preference against
		// what this client offered (Section 7's communication lever; an
		// empty offer from an older client degrades to raw).
		Compress: compress.Negotiate(ts.spec.Compress, req.Compress),
	}
	if dpc := ts.spec.DP; dpc != nil {
		// Ask the client to clip BEFORE it quantizes (ROADMAP ordering) so
		// quantization error cannot push a compliant update past the bound
		// it targets; the server still re-clips after dequantize.
		resp.DPClip = dpc.Clip
		if dpc.Local {
			resp.DPLocalNoise = dpc.NoiseMultiplier * dpc.Clip
		}
	}
	dep := ts.spec.SecAgg
	aggName, aggParam := ts.spec.Aggregation, ts.spec.AggParam
	ts.mu.Unlock()
	// Codec negotiation outcome: which upload codec chain this session
	// will actually use ("raw" when the negotiation yielded nothing).
	a.obs.negotiated(resp.Compress)
	a.obs.span(s.trace, "report", req.TaskID, req.SessionID, start, "")

	if dep != nil {
		bundles, err := dep.FetchInitialBundles(1)
		if err != nil {
			return nil, fmt.Errorf("aggregator %s: fetching SecAgg bundle: %w", a.name, err)
		}
		resp.SecAggEnabled = true
		resp.SecAggBundle = &bundles[0]
		resp.SecAggTrust = dep.ClientTrust()
		resp.Aggregation, resp.AggParam = aggName, aggParam
	}
	return resp, nil
}

func (a *Aggregator) failSession(req FailRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	s := ts.sessions[req.SessionID]
	ts.dropSessionLocked(req.SessionID)
	ts.mu.Unlock()
	if s != nil {
		s.close()
		a.obs.sessionsClosed.Inc()
		a.obs.span(s.trace, "fail", req.TaskID, req.SessionID, start, "client-failed")
	}
	return true, nil
}

// uploadChunk assembles a session's update; the final chunk triggers
// aggregation. Model updates arrive in chunks (participation stage 4).
//
// This is the serving hot path, and it deliberately holds the task mutex
// only for map lookups and counter updates. Chunk decompression runs
// outside every lock; the copy into the session's reassembly buffer runs
// under the session's own mutex; and in AsyncFL the final accumulate runs
// under the aggregation buffer's per-shard locks (Section 6.3's parallel
// buffered aggregation), so concurrent uploads from different sessions
// contend only on their shard, never on the whole task.
func (a *Aggregator) uploadChunk(c UploadChunk) (out any, err error) {
	start := time.Now()
	var trace uint64
	defer func() {
		// One histogram observation per chunk accept — the hot-path
		// latency series — plus the chunk span for traced sessions
		// (both are atomic-cheap; RecordSpan no-ops on trace 0).
		a.obs.chunkSeconds.Observe(time.Since(start).Seconds())
		errText := ""
		if resp, isResp := out.(UploadResponse); isResp && !resp.OK {
			errText = resp.Reason
		}
		a.obs.span(trace, "chunk", c.TaskID, c.SessionID, start, errText)
	}()
	ts, err := a.task(c.TaskID)
	if err != nil {
		return nil, err
	}

	ts.mu.Lock()
	useSecAgg := ts.spec.SecAgg != nil
	numParams := ts.spec.NumParams
	s, ok := ts.sessions[c.SessionID]
	if ok {
		trace = s.trace
	}
	if ok && s.abortReason != "" {
		reason := s.abortReason
		ts.dropSessionLocked(c.SessionID)
		ts.mu.Unlock()
		s.close()
		a.obs.sessionsClosed.Inc()
		a.obs.uploadRejects.Inc()
		return UploadResponse{OK: false, Reason: reason}, nil
	}
	ts.mu.Unlock()
	if !ok {
		return UploadResponse{OK: false, Reason: "unknown session"}, nil
	}

	// A packed chunk carries a self-describing compression frame instead
	// of raw elements; decode it into the path the rest of the assembly
	// logic already handles. Two rules guard the decode: the declared
	// element count is validated against the task's dimensions *before*
	// any allocation (a hostile frame must not buy a huge decode), and
	// the flate/dequantize work runs outside every lock so one client's
	// decompression never serializes the task's upload path. The decode
	// target is leased from the pool and released once the elements are
	// copied into the session buffer. A malformed frame rejects the
	// session's upload, not the aggregator.
	if len(c.Packed) > 0 {
		wantKind := compress.KindFloat32
		limit := numParams
		if useSecAgg {
			wantKind = compress.KindUint32
			limit++
		}
		_, kind, n, err := compress.FrameInfo(c.Packed)
		switch {
		case err != nil:
			return UploadResponse{OK: false, Reason: "bad compressed chunk: " + err.Error()}, nil
		case kind != wantKind:
			return UploadResponse{OK: false, Reason: "compressed chunk has wrong element kind"}, nil
		case c.Offset < 0 || c.Offset > limit || n > limit-c.Offset:
			return UploadResponse{OK: false, Reason: "chunk out of bounds"}, nil
		}
		if useSecAgg {
			vals := vecpool.GetUints(n)
			defer vecpool.PutUints(vals)
			if err := compress.DecompressUintsInto(vals, c.Packed); err != nil {
				return UploadResponse{OK: false, Reason: "bad compressed chunk: " + err.Error()}, nil
			}
			c.Masked = vals
		} else {
			vals := vecpool.GetFloats(n)
			defer vecpool.PutFloats(vals)
			if err := compress.DecompressFloatsInto(vals, c.Packed); err != nil {
				return UploadResponse{OK: false, Reason: "bad compressed chunk: " + err.Error()}, nil
			}
			c.Data = vals
		}
	}

	if resp := s.addChunk(&c, useSecAgg, numParams); resp != nil {
		return *resp, nil
	}
	if !c.Done {
		return UploadResponse{OK: true}, nil
	}
	return a.finishUpload(ts, c, s)
}

// finishUpload completes a session's upload and runs the aggregation path.
// It owns the session's reassembly buffers (via take) and must release
// them on every path once their contents are folded into durable state.
func (a *Aggregator) finishUpload(ts *taskState, c UploadChunk, s *sessionState) (out any, err error) {
	finishStart := time.Now()
	defer func() {
		a.obs.finishSeconds.Observe(time.Since(finishStart).Seconds())
		if resp, isResp := out.(UploadResponse); isResp && !resp.OK {
			a.obs.uploadRejects.Inc()
		}
	}()
	pending, pendingGp, received, ok := s.take()
	if !ok {
		return UploadResponse{OK: false, Reason: "unknown session"}, nil
	}
	release := func() {
		vecpool.PutFloats(pending)
		vecpool.PutUints(pendingGp)
	}

	// Plaintext update hygiene plus the DP sensitivity bound, both outside
	// every lock like the chunk decode. A non-finite update is rejected:
	// NaN survives clipping (every comparison with it is false), so one
	// poisoned raw-codec delta would otherwise corrupt the whole aggregate
	// — the packed codecs already sanitize at encode time, this covers the
	// raw path. DP tasks then re-clip after dequantize, because int8/int16
	// quantization error can inflate a client-side-clipped norm past the
	// bound the noise is calibrated for. ClipUpdate is stateless, so it is
	// safe on this sharded concurrent path, and the machine's mechanism
	// pointer is fixed at placement.
	finite := pendingGp != nil || vecf.AllFinite(pending)
	if mech := ts.m.DP(); mech != nil && finite {
		pre := mech.ClipUpdate(pending)
		a.obs.dpClipFraction.Observe(pre / mech.Clip())
	}

	ts.mu.Lock()
	if cur, live := ts.sessions[c.SessionID]; !live || cur != s {
		ts.mu.Unlock()
		release()
		return UploadResponse{OK: false, Reason: "unknown session"}, nil
	}
	// reject ends the session with its upload refused. Caller holds ts.mu.
	reject := func(reason string) (any, error) {
		ts.dropSessionLocked(c.SessionID)
		ts.mu.Unlock()
		release()
		a.obs.sessionsClosed.Inc()
		return UploadResponse{OK: false, Reason: reason}, nil
	}
	if s.abortReason != "" {
		return reject(s.abortReason)
	}
	if !finite {
		return reject("non-finite update")
	}
	// Refuses a stale upload, and any once the budget ran out.
	staleness, refusal := ts.m.Admit(s.startVersion)
	if refusal != "" {
		return reject(refusal)
	}
	if ts.secAgg != nil && received != ts.spec.NumParams+1 {
		return reject("incomplete masked upload")
	}
	if ts.secAgg == nil && received != ts.spec.NumParams {
		return reject("incomplete upload")
	}

	// Weight for the plaintext paths; SecAgg clients weight on-device by
	// the same rule, named in their report response.
	w := ts.m.Weight(c.NumExamples, staleness)

	switch {
	case ts.secAgg != nil:
		// The SecAgg aggregate (host sum + enclave boundary call) is not
		// concurrency-safe and stays under the task mutex; the boundary
		// crossing dominates its cost anyway (Section 5).
		up := secagg.Upload{
			Index:      c.SecAggIndex,
			Masked:     pendingGp,
			Completing: c.SecAggCompleting,
			EncSeed:    c.SecAggEncSeed,
		}
		if err := ts.secAgg.Add(up); err != nil {
			return reject(err.Error())
		}
		out, err := a.countAndMaybeStepLocked(ts, c.SessionID)
		ts.mu.Unlock()
		release()
		return out, err

	case ts.m.Mode() == task.Sync:
		// SyncFL rounds close atomically: the add, the count, and the
		// possible round close (with its over-selection discard, Appendix
		// E.3) stay consistent under the task mutex.
		ts.buf.Add(pending, w, int(s.clientID))
		out, err := a.countAndMaybeStepLocked(ts, c.SessionID)
		ts.mu.Unlock()
		release()
		return out, err

	default:
		// AsyncFL (FedBuff): the sharded fast path. The accumulate runs
		// outside the task mutex — buffer shards carry their own locks
		// (the buffer.NumShards semantics the parallel engine introduced),
		// so concurrent finishing sessions contend per shard. Whether the
		// goal is met is decided from the buffered count once the counters
		// are re-locked, which keeps exactly one finisher triggering each
		// server step. One deliberate relaxation versus the old fully
		// locked path: a concurrent server step can advance the version
		// between the staleness check above and this Add, so an update may
		// land one release late with a one-step-stale weight — exactly the
		// arrival-order tolerance FedBuff is built on (Section 6.3), and
		// bounded at one step by the staleness check still holding ts.mu.
		clientID := s.clientID
		ts.mu.Unlock()

		ts.buf.Add(pending, w, int(clientID))
		release()

		ts.mu.Lock()
		out, err := a.countAndMaybeStepLocked(ts, c.SessionID)
		ts.mu.Unlock()
		return out, err
	}
}

// countAndMaybeStepLocked finishes an accepted upload's bookkeeping and
// triggers the server step when the release machine says so. Caller holds
// ts.mu. The count handed to the machine is read under the lock, so
// concurrent async finishers cannot double-trigger a release: the first
// one to lock sees the goal and drains the buffer; the rest see the
// drained count.
func (a *Aggregator) countAndMaybeStepLocked(ts *taskState, sessionID uint64) (any, error) {
	var trace uint64
	if s := ts.sessions[sessionID]; s != nil {
		trace = s.trace
	}
	ts.updates++
	ts.dropSessionLocked(sessionID)
	a.obs.uploads.Inc()
	a.obs.sessionsClosed.Inc()

	buffered := ts.buf.Count()
	if ts.secAgg != nil {
		buffered = ts.secAgg.Received()
	}
	switch {
	case ts.m.Ready(buffered):
		stepStart := time.Now()
		if err := a.serverStepLocked(ts); err != nil {
			return nil, err
		}
		a.obs.stepSeconds.Observe(time.Since(stepStart).Seconds())
		a.obs.aggregateSteps.Inc()
		// The aggregate span is attributed to the session whose upload
		// met the goal — the last hop of that session's trace.
		a.obs.span(trace, "aggregate", ts.spec.ID, sessionID, stepStart, "")
	case ts.m.Exhausted():
		// The task completes with status "budget_exhausted": live sessions
		// abort, and join/upload refuse from here on.
		ts.abortLocked()
		mech := ts.m.DP()
		log.Printf("aggregator %s: task %q epsilon budget exhausted after %d release(s) (eps=%.3f, budget=%.3f)",
			a.name, ts.spec.ID, mech.Releases(), mech.Epsilon(), mech.Budget())
	}
	return UploadResponse{OK: true}, nil
}

// serverStepLocked releases the buffer (or unmasks the secure aggregate)
// into the release machine's Step. Caller holds ts.mu.
func (a *Aggregator) serverStepLocked(ts *taskState) error {
	if ts.secAgg != nil {
		group, _, err := ts.secAgg.UnmaskGroup()
		if err != nil {
			return fmt.Errorf("aggregator %s: unmask: %w", a.name, err)
		}
		// Slots [0,n) hold sum(w_i * delta_i); slot n holds sum(w_i).
		codec := ts.spec.SecAgg.Params.Codec()
		decoded := make([]float32, len(group))
		codec.DecodeVec(decoded, group)
		totalW := decoded[len(decoded)-1]
		if totalW <= 0 {
			return fmt.Errorf("aggregator %s: secure aggregate has non-positive total weight", a.name)
		}
		update := decoded[:len(decoded)-1]
		vecf.Scale(update, 1/totalW)
		ts.m.Step(ts.params, update, buffer.ReleaseStats{})
	} else {
		// ReleaseInto recycles the task's scratch vector, so a server step
		// allocates nothing model-sized (the optimizer only reads update).
		stats := ts.buf.ReleaseIntoStats(ts.scratch)
		ts.m.Step(ts.params, ts.scratch, stats)
		if mech := ts.m.DP(); mech != nil {
			ts.dpEpsilonBits.Store(math.Float64bits(mech.Epsilon()))
			a.obs.dpReleases.Inc()
		}
	}
	ts.abortLocked()
	return nil
}

// abortLocked marks every open session the release machine aborts after
// a step or the budget running out. Caller holds ts.mu.
func (ts *taskState) abortLocked() {
	for _, s := range ts.sessions {
		if reason := ts.m.Aborted(s.startVersion); reason != "" {
			s.abortReason = reason
		}
	}
}

// TaskInfo is the "task-info" response: a task's observable state (model
// version, accepted client updates per Section 6.3's buffered aggregation,
// live sessions) for tests, operators, and the loadtest driver.
type TaskInfo struct {
	// Version is the server model version (increments per server step).
	Version int
	// Updates counts accepted client updates since placement.
	Updates int64
	// Active is the number of open virtual sessions (Section 6.1).
	Active int
	// Params is a snapshot of the current server model.
	Params []float32
	// Mode is the task's current aggregation mode (Appendix E.3 switches
	// it at runtime).
	Mode task.Mode
	// DPEnabled reports whether the task runs under central DP; the
	// remaining DP fields are meaningful only when it is set.
	DPEnabled bool
	// DPEpsilon is the cumulative epsilon spent at DPDelta.
	DPEpsilon float64
	// DPDelta is the task's configured delta.
	DPDelta float64
	// DPReleases counts noised aggregate releases.
	DPReleases int
	// DPBudget is the configured epsilon cap (0 = unlimited).
	DPBudget float64
	// DPExhausted reports the task completed with status
	// "budget_exhausted": the next release would exceed DPBudget.
	DPExhausted bool
}

func (a *Aggregator) taskInfo(taskID string) (any, error) {
	ts, err := a.task(taskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	params := vecpool.GetFloats(len(ts.params))
	copy(params, ts.params)
	info := TaskInfo{
		Version: ts.m.Version(),
		Updates: ts.updates,
		Active:  len(ts.sessions),
		Params:  params,
		Mode:    ts.m.Mode(),
	}
	if mech := ts.m.DP(); mech != nil {
		info.DPEnabled = true
		info.DPEpsilon = mech.Epsilon()
		info.DPDelta = mech.Delta()
		info.DPReleases = mech.Releases()
		info.DPBudget = mech.Budget()
		info.DPExhausted = ts.m.Exhausted()
	}
	return info, nil
}

// activeSessionCount sums open sessions across this aggregator's tasks;
// sampled lazily by the papaya_active_sessions gauge at scrape time.
func (a *Aggregator) activeSessionCount() int {
	a.mu.Lock()
	tasks := make([]*taskState, 0, len(a.tasks))
	for _, ts := range a.tasks {
		tasks = append(tasks, ts)
	}
	a.mu.Unlock()
	n := 0
	for _, ts := range tasks {
		ts.mu.Lock()
		n += len(ts.sessions)
		ts.mu.Unlock()
	}
	return n
}

// heartbeatLoop reports demand and checkpoints to the coordinator
// (Section 6.2: "each Aggregator tracks client demand for the tasks that are
// assigned to it") and executes drop directives for stale assignments.
func (a *Aggregator) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.timings.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			a.reapSessions(time.Now())
			a.sendReport()
		}
	}
}

// reapSessions closes sessions idle past Timings.SessionTTL, releasing
// their concurrency slot and leased reassembly vector — the fix for the
// PR-4 leak where a silently dead client held both until task drop. Runs
// on the heartbeat tick; streaming transports give dead clients a natural
// close signal (the stream breaks), but the TTL is the backstop that
// needs no cooperation from any transport.
func (a *Aggregator) reapSessions(now time.Time) {
	ttl := a.timings.SessionTTL
	if ttl <= 0 {
		return
	}
	a.mu.Lock()
	tasks := make([]*taskState, 0, len(a.tasks))
	for _, ts := range a.tasks {
		tasks = append(tasks, ts)
	}
	a.mu.Unlock()
	for _, ts := range tasks {
		var dead []*sessionState
		var deadIDs []uint64
		ts.mu.Lock()
		taskID := ts.spec.ID
		for id, s := range ts.sessions {
			if now.Sub(s.idleSince()) > ttl {
				ts.dropSessionLocked(id)
				dead = append(dead, s)
				deadIDs = append(deadIDs, id)
			}
		}
		ts.mu.Unlock()
		// close returns the leased buffers outside the task mutex; a
		// concurrent in-flight chunk copy observes the closed marker and
		// is rejected, never a buffer handed to another session.
		for i, s := range dead {
			s.close()
			a.obs.span(s.trace, "reap", taskID, deadIDs[i], now, "session ttl exceeded")
		}
		// A reap is not a clean close: it means a client went silent
		// holding a concurrency slot, so it gets its own counter and a
		// log line — the signal PR 7's silent-vanish scenarios are
		// confirmed by on a live fleet.
		if len(dead) > 0 {
			a.obs.sessionsReaped.Add(int64(len(dead)))
			log.Printf("aggregator %s: reaped %d session(s) idle past %v on task %q",
				a.name, len(dead), ttl, taskID)
		}
	}
}

func (a *Aggregator) sendReport() {
	report := AggReport{Aggregator: a.name, Tasks: make(map[string]TaskReport)}
	// Checkpoints are the expensive part of a report (a full model clone,
	// and over the HTTP fabric a full model transfer): ship one only when
	// the version moved past what the coordinator acknowledged, plus a
	// periodic refresh so a restarted coordinator repopulates its
	// checkpoint table within a few beats (E.4 recovery).
	ckptSent := make(map[string]int)
	a.mu.Lock()
	a.beats++
	refresh := a.beats%8 == 0
	for id, ts := range a.tasks {
		ts.mu.Lock()
		tr := TaskReport{
			Spec:          ts.spec,
			Seq:           ts.seq,
			ActiveClients: len(ts.sessions),
			Demand:        ts.spec.Concurrency - len(ts.sessions),
			Version:       ts.m.Version(),
			Updates:       ts.updates,
		}
		if acked, ok := a.lastCkptVersion[id]; refresh || !ok || acked != tr.Version {
			tr.Checkpoint = vecf.Clone(ts.params)
			ckptSent[id] = tr.Version
		}
		report.Tasks[id] = tr
		ts.mu.Unlock()
	}
	a.mu.Unlock()

	resp, err := a.net.Call(a.name, a.coord, "agg-report", report)
	if err != nil {
		return // coordinator unreachable; keep executing last assignments (E.4)
	}
	a.mu.Lock()
	for id, v := range ckptSent {
		a.lastCkptVersion[id] = v
	}
	a.mu.Unlock()
	if directive, ok := resp.(AggDirective); ok {
		for _, id := range directive.DropTasks {
			_, _ = a.dropTask(id)
		}
	}
}
