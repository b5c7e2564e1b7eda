// Package client implements PAPAYA's edge runtime (Section 4 "Client
// Runtime", Appendix E.5): the example store with retention policy, the
// executor abstraction over training logic, device eligibility (idle,
// charging, unmetered network), participation history, and the four-stage
// participation protocol — download, train, report, chunked upload — all
// inside a virtual session, with transparent failover to another Selector
// and optional Asynchronous SecAgg on the upload path.
package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/fedopt"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/vecf"
)

// ExampleStore collects training data in persistent storage and enforces the
// data use and retention policy (Appendix E.5): examples older than MaxAge
// are evicted, and at most MaxCount examples are retained (oldest first).
type ExampleStore struct {
	mu       sync.Mutex
	maxCount int
	maxAge   time.Duration
	items    []storedExample
}

type storedExample struct {
	seq []int
	at  time.Time
}

// NewExampleStore creates a store. maxCount <= 0 means unlimited count;
// maxAge <= 0 means unlimited age.
func NewExampleStore(maxCount int, maxAge time.Duration) *ExampleStore {
	return &ExampleStore{maxCount: maxCount, maxAge: maxAge}
}

// Add records one example observed at the given time.
func (s *ExampleStore) Add(seq []int, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, storedExample{seq: seq, at: at})
	if s.maxCount > 0 && len(s.items) > s.maxCount {
		s.items = s.items[len(s.items)-s.maxCount:]
	}
}

// Examples returns the retained examples as of now, evicting expired ones.
func (s *ExampleStore) Examples(now time.Time) [][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxAge > 0 {
		kept := s.items[:0]
		for _, it := range s.items {
			if now.Sub(it.at) <= s.maxAge {
				kept = append(kept, it)
			}
		}
		s.items = kept
	}
	out := make([][]int, len(s.items))
	for i, it := range s.items {
		out[i] = it.seq
	}
	return out
}

// Len returns the current number of retained examples (without evicting).
func (s *ExampleStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Executor abstracts the training engine so different ML tasks (data source,
// model, loss) can be swapped in (Appendix E.5).
type Executor interface {
	// Train runs local training from params over the examples and returns
	// the model delta (trained - initial) and the observed training loss.
	Train(params []float32, examples [][]int) (delta []float32, loss float64)
}

// SGDExecutor is the default executor: local SGD on an nn.Model, the
// PyTorch-Mobile-equivalent in this reproduction.
type SGDExecutor struct {
	Model  nn.Model
	Config nn.SGDConfig
	Rng    *rng.RNG
}

// Train implements Executor.
func (e *SGDExecutor) Train(params []float32, examples [][]int) ([]float32, float64) {
	return nn.LocalUpdate(e.Model, params, examples, e.Config, e.Rng)
}

// DeviceState captures the eligibility criteria the client runtime monitors
// (Section 7.1: "a client device can participate in FL training only when
// idle, charging, and on an unmetered network").
type DeviceState struct {
	Idle      bool
	Charging  bool
	Unmetered bool
}

// Eligible reports whether the device may train right now.
func (d DeviceState) Eligible() bool { return d.Idle && d.Charging && d.Unmetered }

// Result summarizes one participation attempt.
type Result struct {
	// Outcome classifies the attempt.
	Outcome Outcome
	// Reason explains rejections and aborts.
	Reason string
	// TaskID is the task trained (when accepted).
	TaskID string
	// Loss is the local training loss (when training ran).
	Loss float64
	// Staleness is the observed version gap at upload (SecAgg path reports
	// it; plaintext path learns it server-side).
	Staleness int
	// Compress is the upload codec this session negotiated ("" = raw).
	Compress string
	// UploadRawBytes is the upload payload size before compression (4
	// bytes per element across every chunk shipped).
	UploadRawBytes int64
	// UploadWireBytes is the payload size actually shipped — compressed
	// frame bytes when a codec was negotiated, raw bytes otherwise. The
	// loadtest aggregates these two into its compression-ratio columns.
	UploadWireBytes int64
	// TraceID is the cross-tier trace ID this attempt minted at
	// check-in (internal/obs); feed it to `papaya trace` to stitch the
	// session's spans across tiers.
	TraceID uint64
	// Traced reports whether the control plane echoed the trace ID at
	// check-in — false means an untraced (or older) selector handled the
	// session and server-side spans do not exist for it.
	Traced bool
	// RetryAfter is the server's back-off hint on a rejected check-in:
	// how long the aggregator expects before a concurrency slot frees
	// (derived from its session-close cadence). Zero means no hint — an
	// older control plane or a rejection with no signal — and the caller
	// falls back to its own jittered schedule.
	RetryAfter time.Duration
}

// Outcome is a participation attempt's terminal state.
type Outcome string

const (
	// Completed means the update was uploaded and accepted.
	Completed Outcome = "completed"
	// Rejected means selection failed (no demand); try again later.
	Rejected Outcome = "rejected"
	// Aborted means the server discarded the session (staleness, round
	// close) after training started.
	Aborted Outcome = "aborted"
	// Dropped means the device itself abandoned the session mid-attempt
	// (a scenario-injected dropout, Runtime.Dropout).
	Dropped Outcome = "dropped"
)

// DropStage is the participation stage after which an injected dropout
// abandons the attempt (see Runtime.Dropout).
type DropStage string

const (
	// DropNone completes the attempt normally.
	DropNone DropStage = ""
	// DropAfterDownload dies after downloading, before training.
	DropAfterDownload DropStage = "download"
	// DropAfterTrain dies after local training, before reporting.
	DropAfterTrain DropStage = "train"
	// DropDuringUpload dies mid-upload, before the final chunk, leaving a
	// partially reassembled session buffer on the aggregator.
	DropDuringUpload DropStage = "upload"
)

// Errors returned by RunOnce.
var (
	ErrNotEligible = errors.New("client: device not eligible (must be idle, charging, unmetered)")
	ErrTooSoon     = errors.New("client: minimum participation interval not elapsed")
	ErrNoSelector  = errors.New("client: no reachable selector")
	ErrNoExamples  = errors.New("client: example store is empty")
)

// Runtime is one device's FL client.
type Runtime struct {
	// ClientID identifies the device.
	ClientID int64
	// Capabilities gate task eligibility (Section 6.2).
	Capabilities []string
	// Store holds local training data.
	Store *ExampleStore
	// Exec runs local training.
	Exec Executor
	// Net and Selectors connect the device to the service; selectors are
	// tried in order on failure (Appendix E.4 "clients retry through a
	// different selector"). Any transport.Fabric works: the in-memory
	// Network in tests, the HTTP backend against a live deployment.
	Net       transport.Fabric
	Selectors []string
	// State is the current device condition.
	State DeviceState
	// MinInterval rate-limits participation using the device's history,
	// supporting fair selection. Zero disables the check.
	MinInterval time.Duration
	// Random supplies SecAgg randomness (mask seeds, DH keys).
	Random io.Reader
	// Staleness mirrors the server's weighting policy for the SecAgg path,
	// where the client applies its own weight before masking; nil means the
	// paper's 1/sqrt(1+s).
	Staleness fedopt.StalenessWeight
	// Compress lists the upload codecs this client offers at report time;
	// nil means every codec in the compress registry. Set it to
	// []string{"none"} to opt out of compression entirely.
	Compress []string
	// Stream opens one transport session per participation: check-in,
	// download, report, and every upload chunk pipeline over a single
	// connection (transport.StreamFabric) instead of one call-scoped
	// exchange each — the paper's long-lived virtual session realized at
	// the transport (Section 6.1). Fabrics without sessions (the
	// in-memory Network) degrade to per-call RPC transparently, and a broken
	// stream falls back to per-call failover through the remaining
	// selectors, so enabling it is always safe.
	Stream bool
	// Dropout, when non-nil, is consulted once per accepted participation
	// and returns the stage at which this attempt's device dies (DropNone
	// = survive) plus whether it vanishes silently. A vanishing client
	// sends no fail-session call — the leaked virtual session is exactly
	// what the server's session-TTL reaper exists for — while a non-
	// vanishing one reports the failure so the slot frees immediately.
	// The scenario engine drives this from its pre-drawn fault plans.
	Dropout func() (stage DropStage, vanish bool)
	// DPNoiseSeed, when nonzero, makes the local-DP noise stream
	// deterministic (tests/scenarios). Zero — the production default —
	// seeds it from crypto/rand: local-DP noise is the device's own
	// secret, and a predictable stream voids the local guarantee.
	DPNoiseSeed uint64

	lastParticipation time.Time
	cachedName        string
	dpNoise           *rng.RNG
}

// name is the runtime's fabric node name, formatted once per Runtime — it is
// on every call and span path, so a per-call Sprintf shows up directly in
// allocs_per_upload.
func (r *Runtime) name() string {
	if r.cachedName == "" {
		r.cachedName = fmt.Sprintf("client-%d", r.ClientID)
	}
	return r.cachedName
}

// RunOnce attempts one full participation: check-in, download, train,
// report, upload. It returns ErrNotEligible/ErrTooSoon without contacting
// the server, ErrNoSelector when the service is unreachable, and a Result
// otherwise.
func (r *Runtime) RunOnce(now time.Time) (*Result, error) {
	if !r.State.Eligible() {
		return nil, ErrNotEligible
	}
	if r.MinInterval > 0 && !r.lastParticipation.IsZero() &&
		now.Sub(r.lastParticipation) < r.MinInterval {
		return nil, ErrTooSoon
	}
	examples := r.Store.Examples(now)
	if len(examples) == 0 {
		return nil, ErrNoExamples
	}

	// Selection phase: check in through the first reachable selector —
	// over a streaming session when Stream is set, so the whole
	// participation rides one connection.
	p, checkin, err := r.checkin()
	if err != nil {
		return nil, err
	}
	defer p.close()
	if !checkin.Accepted {
		return &Result{
			Outcome:    Rejected,
			Reason:     checkin.Reason,
			TraceID:    p.trace,
			Traced:     checkin.TraceID != 0,
			RetryAfter: time.Duration(checkin.RetryAfterMs) * time.Millisecond,
		}, nil
	}
	r.lastParticipation = now
	p.sessionID = checkin.SessionID
	traced := checkin.TraceID != 0

	// Scenario-injected faults: one draw decides whether (and where) this
	// attempt's device dies. The draw happens before any stage runs so the
	// schedule is independent of server behaviour.
	var dropStage DropStage
	var dropVanish bool
	if r.Dropout != nil {
		dropStage, dropVanish = r.Dropout()
	}

	// Participation stage 1: download model parameters.
	dl, err := p.route(checkin.TaskID, "download", server.DownloadRequest{
		TaskID:    checkin.TaskID,
		SessionID: checkin.SessionID,
	})
	if err != nil {
		return nil, err
	}
	download := dl.(server.DownloadResponse)
	if dropStage == DropAfterDownload {
		return r.abandon(p, checkin, dropStage, dropVanish, 0), nil
	}

	// Stage 2: local training.
	trainStart := time.Now()
	delta, loss := r.Exec.Train(download.Params, examples)
	obs.RecordSpan(p.trace, "client", r.name(), "train", checkin.TaskID, checkin.SessionID, trainStart, time.Since(trainStart), "")
	if dropStage == DropAfterTrain {
		return r.abandon(p, checkin, dropStage, dropVanish, loss), nil
	}

	// Stage 3: report status, receive upload (and SecAgg) configuration,
	// offering the compression codecs this client can encode.
	rep, err := p.route(checkin.TaskID, "report", server.ReportRequest{
		TaskID:    checkin.TaskID,
		SessionID: checkin.SessionID,
		Compress:  r.offeredCodecs(),
	})
	if err != nil {
		return nil, err
	}
	report := rep.(server.ReportResponse)
	if !report.OK {
		return &Result{Outcome: Aborted, Reason: report.Reason, TaskID: checkin.TaskID, Loss: loss, TraceID: p.trace, Traced: traced}, nil
	}

	// DP tasks: clip the delta BEFORE the upload codec quantizes it (the
	// ROADMAP ordering — quantization error on an unclipped delta would
	// overshoot the bound the client targets), and under local DP add the
	// device's own Gaussian noise so not even the aggregator sees the raw
	// update. The server re-clips after dequantize regardless, so skipping
	// this never voids the central guarantee — it only wastes the part of
	// the update the server clips away.
	if report.DPClip > 0 {
		vecf.ClipNorm(delta, report.DPClip)
		if report.DPLocalNoise > 0 {
			r.addLocalNoise(delta, report.DPLocalNoise)
		}
	}

	// Stage 4: chunked upload — compressed when negotiated, masked when
	// SecAgg is enabled.
	staleness := report.CurrentVersion - download.Version
	if staleness < 0 {
		staleness = 0
	}
	codec := r.uploadCodec(report.Compress)
	if dropStage == DropDuringUpload {
		p.dropUpload, p.dropVanish = true, dropVanish
	}
	var meter uploadMeter
	var uploadErr *Result
	if report.SecAggEnabled {
		uploadErr, err = r.uploadSecAgg(p, checkin, report, delta, len(examples), staleness, codec, &meter)
	} else {
		uploadErr, err = r.uploadPlain(p, checkin, report, delta, len(examples), codec, &meter)
	}
	if err != nil {
		return nil, err
	}
	res := uploadErr
	if res == nil {
		res = &Result{Outcome: Completed, TaskID: checkin.TaskID, Staleness: staleness}
	}
	res.Loss = loss
	if codec != nil {
		res.Compress = codec.Name()
	}
	res.UploadRawBytes = meter.raw
	res.UploadWireBytes = meter.wire
	res.TraceID = p.trace
	res.Traced = traced
	return res, nil
}

// addLocalNoise adds iid Gaussian noise with the given per-coordinate
// stddev to the clipped delta (local DP), lazily seeding the device's
// private noise stream (crypto/rand unless DPNoiseSeed pins it).
func (r *Runtime) addLocalNoise(delta []float32, sigma float64) {
	if r.dpNoise == nil {
		seed := r.DPNoiseSeed
		if seed == 0 {
			var b [8]byte
			if _, err := crand.Read(b[:]); err == nil {
				seed = binary.LittleEndian.Uint64(b[:])
			} else {
				// Entropy failure: a weak seed still beats uploading the
				// raw delta, but mix in what identity we have.
				seed = uint64(time.Now().UnixNano()) ^ uint64(r.ClientID)
			}
		}
		r.dpNoise = rng.New(seed)
	}
	for i := range delta {
		delta[i] += float32(sigma * r.dpNoise.NormFloat64())
	}
}

// abandon terminates an attempt at a scheduled dropout point. A vanishing
// device just stops talking (its virtual session leaks until the server's
// TTL reaper collects it); otherwise the client reports the failure so the
// concurrency slot frees immediately. Transport errors are ignored — a
// dying device cannot guarantee delivery.
func (r *Runtime) abandon(p *participation, checkin server.CheckinResponse,
	stage DropStage, vanish bool, loss float64) *Result {
	if !vanish {
		_, _ = p.route(checkin.TaskID, "fail-session", server.FailRequest{
			TaskID:    checkin.TaskID,
			SessionID: checkin.SessionID,
		})
	}
	return &Result{
		Outcome: Dropped,
		Reason:  "dropout after " + string(stage),
		TaskID:  checkin.TaskID,
		Loss:    loss,
		TraceID: p.trace,
		Traced:  checkin.TraceID != 0,
	}
}

// uploadMeter accumulates the upload path's byte accounting: raw payload
// size versus what actually crossed the wire.
type uploadMeter struct{ raw, wire int64 }

// offeredCodecs is the client's half of the compression negotiation.
func (r *Runtime) offeredCodecs() []string {
	if r.Compress != nil {
		return r.Compress
	}
	return compress.Names()
}

// uploadCodec resolves the negotiated codec name; any problem degrades to
// raw uploads, which every aggregator accepts.
func (r *Runtime) uploadCodec(name string) compress.Codec {
	if name == "" || name == "none" {
		return nil
	}
	c, err := compress.ByName(name)
	if err != nil {
		return nil
	}
	return c
}

// participation is one attempt's transport context: the selector the
// session was opened through, and — under Runtime.Stream — the streaming
// session every in-session call pipelines over. A broken stream degrades
// to per-call failover through the remaining selectors mid-attempt.
type participation struct {
	r        *Runtime
	selector string
	sess     transport.Session // nil: per-call RPC
	// trace is the attempt's cross-tier trace ID (minted in checkin);
	// sessionID is filled in once the check-in is accepted so chunk
	// spans carry it.
	trace     uint64
	sessionID uint64
	// dropUpload/dropVanish carry a DropDuringUpload schedule into the
	// chunk loops: the attempt dies right before its final (Done) chunk.
	dropUpload bool
	dropVanish bool
}

// close releases the streaming session (the server's natural end-of-
// session signal); idempotent.
func (p *participation) close() {
	if p.sess != nil {
		_ = p.sess.Close()
		p.sess = nil
	}
}

// checkin tries each selector in order; under Stream it opens the
// session-long connection the rest of the participation will ride.
func (r *Runtime) checkin() (*participation, server.CheckinResponse, error) {
	// Every attempt mints a trace ID (internal/obs): one uint64 on the
	// cold control messages. An older control plane drops the field and
	// the session degrades to untraced server-side; client spans are
	// recorded locally either way.
	trace := obs.NextTraceID(r.ClientID)
	start := time.Now()
	req := server.CheckinRequest{ClientID: r.ClientID, Capabilities: r.Capabilities, TraceID: trace}
	for _, sel := range r.Selectors {
		if r.Stream {
			sess, err := transport.OpenSession(r.Net, r.name(), sel)
			if err != nil {
				continue // try the next selector
			}
			resp, err := sess.Call("checkin", req)
			if err != nil {
				_ = sess.Close()
				continue
			}
			cr := resp.(server.CheckinResponse)
			obs.RecordSpan(trace, "client", r.name(), "checkin", cr.TaskID, cr.SessionID, start, time.Since(start), cr.Reason)
			return &participation{r: r, selector: sel, sess: sess, trace: trace}, cr, nil
		}
		resp, err := r.Net.Call(r.name(), sel, "checkin", req)
		if err != nil {
			continue
		}
		cr := resp.(server.CheckinResponse)
		obs.RecordSpan(trace, "client", r.name(), "checkin", cr.TaskID, cr.SessionID, start, time.Since(start), cr.Reason)
		return &participation{r: r, selector: sel, trace: trace}, cr, nil
	}
	return nil, server.CheckinResponse{}, ErrNoSelector
}

// route sends an in-session call through the selector — over the
// streaming session when one is open, failing over to per-call RPC through
// the remaining selectors on transport errors. One client span per
// in-session call, named after the forwarded method (download, report,
// upload-chunk, fail-session) — chunk spans fall out of the upload loop
// calling this per chunk.
func (p *participation) route(taskID, method string, payload any) (any, error) {
	start := time.Now()
	resp, err := p.routeCall(taskID, method, payload)
	obs.RecordSpan(p.trace, "client", p.r.name(), method, taskID, p.sessionID, start, time.Since(start), "")
	return resp, err
}

func (p *participation) routeCall(taskID, method string, payload any) (any, error) {
	r := p.r
	req := server.RouteRequest{TaskID: taskID, Method: method, Payload: payload, TraceID: p.trace}
	if p.sess != nil {
		if resp, err := p.sess.Call("route", req); err == nil {
			return resp, nil
		}
		// The stream broke (or the selector crashed): degrade to per-call
		// failover for the rest of the attempt, like any selector retry
		// (Appendix E.4 "clients retry through a different selector").
		p.close()
	}
	if resp, err := r.Net.Call(r.name(), p.selector, "route", req); err == nil {
		return resp, nil
	}
	for _, sel := range r.Selectors {
		if sel == p.selector {
			continue
		}
		if resp, err := r.Net.Call(r.name(), sel, "route", req); err == nil {
			return resp, nil
		}
	}
	return nil, ErrNoSelector
}

// elider returns the streaming session's ack-elision surface when this
// participation negotiated it, nil otherwise (no stream, a peer that did
// not advertise the capability, or a backend without it) — the single gate the upload loops check
// before switching to the elided chunk train.
func (p *participation) elider() transport.ElidingSession {
	if es, ok := p.sess.(transport.ElidingSession); ok && es.ElidesAcks() {
		return es
	}
	return nil
}

// routeNoAck queues an in-session call on the streaming session without
// waiting for an acknowledgement (negotiated ack elision). An error means
// the stream broke and the elided train must restart acked; a server-side
// failure of this call surfaces on the attempt's next acknowledged call.
func (p *participation) routeNoAck(es transport.ElidingSession, taskID, method string, payload any) error {
	start := time.Now()
	req := server.RouteRequest{TaskID: taskID, Method: method, Payload: payload, TraceID: p.trace}
	err := es.SendNoAck("route", req)
	obs.RecordSpan(p.trace, "client", p.r.name(), method, taskID, p.sessionID, start, time.Since(start), "")
	return err
}

// routeStreamOnly sends one acknowledged call strictly over the streaming
// session, with none of route's per-call failover. The final call of an
// elided chunk train must use it: earlier frames on this stream were never
// acknowledged, so resending only this call over a fresh per-call path
// would present the aggregator an incomplete upload. A failure here instead
// restarts the whole train in acked mode.
func (p *participation) routeStreamOnly(taskID, method string, payload any) (any, error) {
	start := time.Now()
	req := server.RouteRequest{TaskID: taskID, Method: method, Payload: payload, TraceID: p.trace}
	resp, err := p.sess.Call("route", req)
	obs.RecordSpan(p.trace, "client", p.r.name(), method, taskID, p.sessionID, start, time.Since(start), "")
	return resp, err
}

// errElidedTrainLost marks a streaming failure inside an elided chunk
// train: some unacknowledged chunks may not have reached the aggregator,
// so the upload must restart from the first chunk in acked mode. The
// aggregator's idempotent contiguous-prefix chunk accounting makes the
// full resend safe.
var errElidedTrainLost = errors.New("client: elided chunk train lost")

// sendChunk ships one upload chunk: elided (no acknowledgement) for
// non-final chunks when es is set, acknowledged otherwise. The final chunk
// of an elided train stays on the stream with no per-call failover —
// earlier frames were never acknowledged, so resending only the final
// chunk over a fresh path would present the aggregator an incomplete
// upload; any failure returns errElidedTrainLost so the caller restarts
// the whole train acked instead.
func (p *participation) sendChunk(es transport.ElidingSession, taskID string,
	chunk server.UploadChunk) (*Result, error) {
	if es != nil && !chunk.Done {
		if err := p.routeNoAck(es, taskID, "upload-chunk", chunk); err != nil {
			return nil, fmt.Errorf("%w: %v", errElidedTrainLost, err)
		}
		return nil, nil
	}
	var resp any
	var err error
	if es != nil {
		resp, err = p.routeStreamOnly(taskID, "upload-chunk", chunk)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errElidedTrainLost, err)
		}
	} else {
		resp, err = p.route(taskID, "upload-chunk", chunk)
		if err != nil {
			return nil, err
		}
	}
	ur := resp.(server.UploadResponse)
	if !ur.OK {
		return &Result{Outcome: Aborted, Reason: ur.Reason, TaskID: taskID}, nil
	}
	return nil, nil
}

// uploadPlain ships the delta in chunks, each one compressed with the
// negotiated codec (nil = raw). When the streaming session negotiated ack
// elision, non-final chunks ride unacknowledged and only the Done chunk
// waits for a reply; a broken stream mid-train restarts the upload once in
// per-chunk-ack mode with the byte meter rolled back. One frame scratch
// buffer is reused across the session's chunks: the transport encodes the
// chunk synchronously inside route/SendNoAck (and the in-memory fabric's
// handler copies before returning), so by the time the next iteration
// overwrites the scratch the previous frame is no longer referenced.
func (r *Runtime) uploadPlain(p *participation, checkin server.CheckinResponse,
	report server.ReportResponse, delta []float32, numExamples int,
	codec compress.Codec, meter *uploadMeter) (*Result, error) {
	if es := p.elider(); es != nil {
		saved := *meter
		res, err := r.uploadPlainChunks(p, es, checkin, report, delta, numExamples, codec, meter)
		if !errors.Is(err, errElidedTrainLost) {
			return res, err
		}
		*meter = saved
		p.close()
	}
	return r.uploadPlainChunks(p, nil, checkin, report, delta, numExamples, codec, meter)
}

func (r *Runtime) uploadPlainChunks(p *participation, es transport.ElidingSession,
	checkin server.CheckinResponse, report server.ReportResponse, delta []float32,
	numExamples int, codec compress.Codec, meter *uploadMeter) (*Result, error) {
	var scratch []byte
	for off := 0; off < len(delta); off += report.ChunkSize {
		end := off + report.ChunkSize
		if end > len(delta) {
			end = len(delta)
		}
		chunk := server.UploadChunk{
			TaskID:      checkin.TaskID,
			SessionID:   checkin.SessionID,
			Offset:      off,
			Done:        end == len(delta),
			NumExamples: numExamples,
		}
		if p.dropUpload && chunk.Done {
			return r.abandon(p, checkin, DropDuringUpload, p.dropVanish, 0), nil
		}
		raw := int64(4 * (end - off))
		meter.raw += raw
		if codec != nil {
			frame, err := compress.AppendCompressedFloats(scratch[:0], codec, delta[off:end])
			if err != nil {
				return nil, fmt.Errorf("client: compressing chunk at %d: %w", off, err)
			}
			scratch = frame
			chunk.Packed = frame
			meter.wire += int64(len(frame))
		} else {
			chunk.Data = delta[off:end]
			meter.wire += raw
		}
		if res, err := p.sendChunk(es, checkin.TaskID, chunk); res != nil || err != nil {
			return res, err
		}
	}
	return nil, nil
}

// uploadSecAgg applies the client-side weight, encodes the weight-extended
// vector, masks it, and ships the masked chunks plus the sealed seed
// envelope. The plaintext delta never leaves the device.
func (r *Runtime) uploadSecAgg(p *participation, checkin server.CheckinResponse,
	report server.ReportResponse, delta []float32, numExamples, staleness int,
	codec compress.Codec, meter *uploadMeter) (*Result, error) {
	stale := r.Staleness
	if stale == nil {
		stale = fedopt.DefaultStaleness()
	}
	w := float64(numExamples) * stale(staleness)
	if w <= 0 {
		w = 1
	}
	weighted := vecf.Clone(delta)
	vecf.Scale(weighted, float32(w))

	fp := report.SecAggTrust.Params.Codec()
	vec := make([]uint32, len(delta)+1)
	for i, v := range weighted {
		vec[i] = fp.Encode(float64(v))
	}
	vec[len(delta)] = fp.Encode(w)

	sess, err := secagg.NewClientSession(report.SecAggTrust, *report.SecAggBundle, r.Random)
	if err != nil {
		return nil, fmt.Errorf("client: SecAgg validation failed, refusing to upload: %w", err)
	}
	up, err := sess.MaskGroupVector(vec, r.Random)
	if err != nil {
		return nil, err
	}

	if es := p.elider(); es != nil {
		saved := *meter
		res, serr := r.uploadMaskedChunks(p, es, checkin, report, up, numExamples, codec, meter)
		if !errors.Is(serr, errElidedTrainLost) {
			return res, serr
		}
		*meter = saved
		p.close()
	}
	return r.uploadMaskedChunks(p, nil, checkin, report, up, numExamples, codec, meter)
}

// uploadMaskedChunks ships one masked SecAgg vector in chunks — elided when
// es is set (see uploadPlain), acked per chunk otherwise.
func (r *Runtime) uploadMaskedChunks(p *participation, es transport.ElidingSession,
	checkin server.CheckinResponse, report server.ReportResponse,
	up secagg.Upload, numExamples int, codec compress.Codec,
	meter *uploadMeter) (*Result, error) {
	var scratch []byte
	for off := 0; off < len(up.Masked); off += report.ChunkSize {
		end := off + report.ChunkSize
		if end > len(up.Masked) {
			end = len(up.Masked)
		}
		chunk := server.UploadChunk{
			TaskID:      checkin.TaskID,
			SessionID:   checkin.SessionID,
			Offset:      off,
			Done:        end == len(up.Masked),
			NumExamples: numExamples,
		}
		if p.dropUpload && chunk.Done {
			return r.abandon(p, checkin, DropDuringUpload, p.dropVanish, 0), nil
		}
		raw := int64(4 * (end - off))
		meter.raw += raw
		if codec != nil {
			frame, err := compress.AppendCompressedUints(scratch[:0], codec, up.Masked[off:end])
			if err != nil {
				return nil, fmt.Errorf("client: compressing masked chunk at %d: %w", off, err)
			}
			scratch = frame
			chunk.Packed = frame
			meter.wire += int64(len(frame))
		} else {
			chunk.Masked = up.Masked[off:end]
			meter.wire += raw
		}
		if chunk.Done {
			chunk.SecAggIndex = up.Index
			chunk.SecAggCompleting = up.Completing
			chunk.SecAggEncSeed = up.EncSeed
		}
		if res, err := p.sendChunk(es, checkin.TaskID, chunk); res != nil || err != nil {
			return res, err
		}
	}
	return nil, nil
}
