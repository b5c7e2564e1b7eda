// Package server implements PAPAYA's production control plane (Section 4):
// a single Coordinator, elastically scalable Selectors and Aggregators, and
// the protocols between them — client assignment driven by per-task demand
// (Section 6.2), persistent stateful Aggregators with parallel buffered
// aggregation (Section 6.3), heartbeat-based failure detection with task
// reassignment and sequence-numbered assignment maps (Appendix E.4), max
// concurrency enforcement and staleness aborts (Appendix E.1/E.2), and
// optional Asynchronous SecAgg on the upload path (Section 5).
//
// Components communicate over internal/transport, so tests inject crashes
// and partitions and assert the system keeps training.
package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/secagg"
)

// TaskSpec describes one FL task. A task lives on exactly one Aggregator at
// a time (apart from failures); the Coordinator owns placement.
type TaskSpec struct {
	// ID names the task.
	ID string
	// Mode selects buffered-asynchronous or synchronous-round aggregation.
	// Switching between them is a configuration change (Appendix E.3).
	Mode core.Algorithm
	// NumParams is the model size.
	NumParams int
	// Concurrency is the max clients training simultaneously (E.1).
	Concurrency int
	// AggregationGoal is K: client updates per server model update.
	AggregationGoal int
	// MaxStaleness aborts async clients whose staleness exceeds it; 0 means
	// unlimited.
	MaxStaleness int
	// Capability must be present in a client's capability set for the task
	// to be eligible (Section 6.2 "task eligibility").
	Capability string
	// InitParams is the initial server model.
	InitParams []float32
	// AggShards is the number of parallel intermediate aggregates; 0 means 8.
	AggShards int
	// UploadChunkSize is the number of elements per upload chunk
	// (participation stage 4 uploads the model in chunks); 0 means 4096.
	UploadChunkSize int
	// SecAgg, when non-nil, enables Asynchronous SecAgg on uploads. The
	// deployment's VecLen must be NumParams+1 (the extra slot carries the
	// update's total weight through the masked aggregation).
	SecAgg *secagg.Deployment
	// Compress names the internal/compress codec the server prefers for
	// upload chunks ("" or "none" disables). It is a preference, not a
	// mandate: each upload negotiates against the codecs the client
	// offered at report time, so clients that offer nothing (older
	// builds) upload raw and keep working.
	Compress string
	// Aggregation names the fedopt.Aggregation rule weighting accepted
	// uploads: "" (the default staleness-weighted FedBuff), "fedavg",
	// "fedbuff", or "fedprox". Unknown names are rejected at placement.
	// TaskSpec is a cold gob message, so adding the field is wire-safe.
	Aggregation string
	// AggParam is the rule's knob (FedBuff staleness exponent, FedProx
	// proximal mu); 0 selects the rule's default.
	AggParam float64
	// DP, when non-nil, runs the task under central differential privacy
	// (internal/dp): the aggregator re-clips every plaintext update after
	// dequantize, noises each released aggregate under the exactly-one-
	// finisher invariant, and accounts (epsilon, delta) across releases,
	// refusing further releases once DP.EpsilonBudget is exhausted (the
	// task completes with status "budget_exhausted"). Validated at
	// placement like Aggregation; incompatible with SecAgg (the server
	// cannot clip masked updates). Cold gob field (versioning rule 2):
	// an older peer's decoder drops it, so DP tasks must not be placed on
	// mixed-version fleets. A spec that crosses the wire should leave
	// DP.Seed zero — the mechanism then seeds from crypto/rand, since a
	// spec-carried seed is visible to every client (see dp.Config.Seed).
	DP *dp.Config
}

// optimizerFor builds the server optimizer for a task. Each placement gets a
// fresh optimizer seeded from the checkpoint; moments are not preserved
// across failovers (they are soft state).
func optimizerFor(TaskSpec) fedopt.Optimizer { return fedopt.DefaultFedAdam() }

// Assignment maps a task to its owning aggregator. Seq increases every time
// the Coordinator moves the task; Aggregators and Selectors discard
// directives and routes with stale sequence numbers (E.4 "Coordinator
// detects stale assignments in aggregator reports via sequence numbers").
type Assignment struct {
	TaskID     string
	Aggregator string
	Seq        uint64
}

// --- RPC payloads ---

// JoinRequest asks to participate in a task (the selection phase handoff,
// Section 6.1).
type JoinRequest struct {
	TaskID   string
	ClientID int64

	// TraceID carries the client-minted session trace ID to the
	// aggregator, which stores it on the session and records spans for
	// every later in-session call (internal/obs). Cold field on a cold
	// gob message, so adding it is wire-safe (versioning rule 2); 0
	// means untraced.
	TraceID uint64
}

// JoinResponse opens a virtual session. Everything the client does next
// happens within this session (Section 6.1).
type JoinResponse struct {
	Accepted  bool
	Reason    string
	SessionID uint64
	Version   int // model version the client will download

	// RetryAfterMs, on a rejection, hints how long the client should back
	// off before its next check-in — the aggregator's estimate of when a
	// session slot frees up (its EWMA of session-close intervals). 0 means
	// no hint: the client keeps its own jittered backoff. Cold gob field
	// (versioning rule 2): an older peer's decoder drops it and the client
	// degrades to local backoff.
	RetryAfterMs int
}

// DownloadRequest fetches model parameters (the paper serves these from a
// CDN; the aggregator plays that role here).
type DownloadRequest struct {
	TaskID    string
	SessionID uint64
}

// DownloadResponse carries the model.
type DownloadResponse struct {
	Params  []float32
	Version int
}

// ReportRequest is participation stage 3: the client reports training
// completion and receives the upload configuration.
type ReportRequest struct {
	TaskID    string
	SessionID uint64
	// Compress lists the internal/compress codecs the client can encode —
	// its half of the upload-compression negotiation. Absent (an older
	// client build) means raw uploads only.
	Compress []string
}

// ReportResponse tells the client how to upload, including the SecAgg
// configuration when enabled.
type ReportResponse struct {
	OK             bool
	Reason         string
	ChunkSize      int
	CurrentVersion int // for client-side staleness weighting under SecAgg
	SecAggEnabled  bool
	SecAggBundle   *secagg.InitialBundle
	SecAggTrust    secagg.ClientTrust
	// Compress is the negotiated upload codec for this session: the task's
	// preferred codec if the client offered it, "" for raw uploads. The
	// client fills UploadChunk.Packed with frames of exactly this codec.
	Compress string
	// DPClip, when positive, asks the client to L2-clip its delta to this
	// bound before (optionally) quantizing and uploading — the ROADMAP's
	// "clip before quantize" ordering. The server re-clips after
	// dequantize regardless, so the guarantee never rests on client
	// cooperation. Cold gob-envelope field (versioning rule 2): an older
	// client drops it and the server-side re-clip still bounds sensitivity.
	DPClip float64
	// DPLocalNoise, when positive, is the per-coordinate Gaussian stddev
	// the client adds to its clipped delta before upload (local DP).
	DPLocalNoise float64
}

// UploadChunk carries one chunk of a (possibly masked) model update.
// Plaintext uploads fill Data; SecAgg uploads fill Masked, and the final
// chunk carries the envelope fields.
type UploadChunk struct {
	TaskID    string
	SessionID uint64
	Offset    int
	Data      []float32
	Masked    []uint32
	// Packed, when non-empty, replaces Data/Masked with a self-describing
	// internal/compress frame holding this chunk's elements (the
	// negotiated wire-compression capability). Offset/Done semantics are
	// unchanged: offsets address decoded elements.
	Packed      []byte
	Done        bool
	NumExamples int
	// SecAgg envelope (final chunk only).
	SecAggIndex      uint64
	SecAggCompleting []byte
	SecAggEncSeed    []byte
}

// UploadResponse acknowledges a chunk (participation stage 4; a rejection
// carries the abort reason of Appendix E.2/E.3).
type UploadResponse struct {
	OK     bool
	Reason string
}

// AckElidable implements transport.AckElidable: a successful chunk ack
// carries no information the uploader needs per chunk (rejections always
// ride the wire), so a peer that negotiated the ack-elide capability may
// suppress it.
func (u UploadResponse) AckElidable() bool { return u.OK }

// FailRequest tells the aggregator a session died client-side (the paper
// also detects this via missed heartbeats; the explicit path keeps tests
// deterministic).
type FailRequest struct {
	TaskID    string
	SessionID uint64
}

// CheckinRequest is a client's check-in with a Selector — the entry point
// of the selection phase (Section 6.1; capabilities feed the Section 6.2
// eligibility match).
type CheckinRequest struct {
	ClientID     int64
	Capabilities []string

	// TraceID is the session trace ID minted by the client at check-in
	// (internal/obs.NextTraceID). 0 means the client is not tracing. An
	// older selector's decoder drops the field (zero value), so the
	// session degrades to untraced rather than failing.
	TraceID uint64
}

// CheckinResponse tells the client whether it was accepted and where to go;
// rejection is a normal outcome ("the client will try to participate at
// another time", Section 6.1).
type CheckinResponse struct {
	Accepted   bool
	Reason     string
	TaskID     string
	Aggregator string
	SessionID  uint64
	Version    int

	// TraceID echoes the request's trace ID when the selector recorded
	// it; a zero echo tells the client the control plane is untraced (or
	// older) and server-side spans will not exist for this session.
	TraceID uint64

	// RetryAfterMs, on a rejection, propagates the aggregator's backoff
	// hint (JoinResponse.RetryAfterMs) through the selector to the client.
	// 0 means no hint. Cold gob field (versioning rule 2).
	RetryAfterMs int
}

// AssignClientRequest is Selector -> Coordinator: pick an eligible task
// with positive demand for this client (Section 6.2's three-step client
// assignment).
type AssignClientRequest struct {
	ClientID     int64
	Capabilities []string
}

// AssignClientResponse names the chosen task and its owning aggregator
// (sequence-numbered so stale routes are detectable, Appendix E.4).
type AssignClientResponse struct {
	Assigned   bool
	TaskID     string
	Aggregator string
	Seq        uint64
}

// TaskReport is one task's state inside an aggregator heartbeat. It carries
// the full spec so a restarted Coordinator can rebuild its task table during
// the recovery period (Appendix E.4).
type TaskReport struct {
	Spec          TaskSpec
	Seq           uint64
	ActiveClients int
	Demand        int
	Version       int
	Updates       int64
	// Checkpoint is the latest model, so a failover can resume. It is
	// included when the version advanced past the coordinator's last
	// acknowledgement (plus a periodic refresh for E.4 recovery), not on
	// every beat — over a real network a heartbeat must not cost a full
	// model transfer.
	Checkpoint []float32
}

// AggReport is Aggregator -> Coordinator (heartbeat + consolidated demand,
// Section 6.2 "the Coordinator pools together information from all
// Aggregators").
type AggReport struct {
	Aggregator string
	Tasks      map[string]TaskReport
}

// AggDirective is the Coordinator's response to a heartbeat: tasks the
// aggregator must stop executing (stale assignments) — E.4 "requests to stop
// executing stale assignments".
type AggDirective struct {
	DropTasks []string
}

// AssignTaskRequest places a task on an aggregator (Coordinator-owned
// placement, Section 6.3; Checkpoint/Version restore state on failover,
// Appendix E.4).
type AssignTaskRequest struct {
	Spec       TaskSpec
	Seq        uint64
	Checkpoint []float32 // nil on first placement
	Version    int
}

// MapResponse is the full assignment map Selectors cache for client
// routing (Appendix E.4 "Client Routing").
type MapResponse struct {
	Assignments map[string]Assignment
}

// AgentListResponse is the Coordinator's answer to list-agents: the live
// aggregator set, sorted by name. Routing-tier Selectors refresh it
// alongside the assignment map — it is the node set their rendezvous
// route hints hash over (internal/placement) and the set their pooled
// sessions are pinned to; an aggregator leaving the list triggers a drain
// of its sessions.
type AgentListResponse struct {
	Agents []string
}

// Timings groups the control-plane intervals (heartbeats, failure
// deadlines, the Appendix E.4 recovery period) so tests can shrink them
// and deployments can tune them.
type Timings struct {
	Heartbeat        time.Duration // aggregator report cadence
	FailureDeadline  time.Duration // missed-report window before reassignment
	MapRefresh       time.Duration // selector assignment-map refresh cadence
	RecoveryPeriod   time.Duration // coordinator state rebuild window (E.4)
	SelectorJoinWait time.Duration // retry backoff for selector routing
	// SessionTTL reaps virtual sessions with no client activity (join,
	// download, report, or chunk) for this long, releasing their slot and
	// leased reassembly vector. A client that dies silently mid-session —
	// a phone going dark, a dropped stream — no longer leaks its session
	// until task drop. Swept on the heartbeat tick; 0 disables reaping.
	// Tune it ABOVE the slowest expected train+upload gap for the device
	// population: a reaped session's late upload is rejected as "unknown
	// session" (the same outcome Appendix E.2 gives a staleness abort),
	// so a too-low TTL silently wastes slow clients' completed work. The
	// default (10 minutes) sits above realistic on-device round times
	// (the paper's rounds run minutes, Section 7); loadtests with
	// synthetic instant training can shrink it aggressively.
	SessionTTL time.Duration
}

// DefaultTimings returns production-flavoured values; tests use much
// shorter ones.
func DefaultTimings() Timings {
	return Timings{
		Heartbeat:        1 * time.Second,
		FailureDeadline:  5 * time.Second,
		MapRefresh:       2 * time.Second,
		RecoveryPeriod:   30 * time.Second,
		SelectorJoinWait: 100 * time.Millisecond,
		SessionTTL:       10 * time.Minute,
	}
}
