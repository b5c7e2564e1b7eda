// Package scenario is a declarative, trace-driven scenario engine: it
// turns a scenario file (JSON, committed under examples/scenarios/) into a
// simulated heterogeneous fleet running against the real PAPAYA control
// plane on any transport fabric. A scenario describes device tiers (CPU
// slowdown factor, dropout probability, availability), a non-IID data
// partition over internal/lmdata, an aggregation rule (fedavg, fedbuff,
// fedprox), and a network fault profile injected through the
// transport.FaultInjector seam — the heterogeneous, unreliable population
// PAPAYA is built to survive (Sections 4-5), reproduced as a test input.
//
// Every stochastic draw a scenario makes — availability, dropout stage,
// device pacing jitter — is a pure function of (Seed, client ID, attempt),
// split from a frozen root RNG exactly like client SGD seeding (the PR 1
// determinism rule). The fault schedule is therefore independent of worker
// count and scheduling order, which is what makes the event trace
// comparable across Options.Workers and lets the conformance suite assert
// deterministic convergence bounds.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/rng"
	"repro/internal/task"
)

// Spec is a scenario file. See docs/DEPLOYMENT.md "Scenario engine" for
// the schema reference and examples/scenarios/ for committed profiles.
type Spec struct {
	// Name labels the scenario in reports and bench rows.
	Name string `json:"name"`
	// Seed roots every stochastic draw the scenario makes.
	Seed uint64 `json:"seed"`
	// Mode is the aggregation mode: "async" (default) or "sync".
	Mode string `json:"mode,omitempty"`
	// Aggregation names the fedopt.Aggregation rule: "" (default
	// staleness-weighted fedbuff), "fedavg", "fedbuff", or "fedprox".
	Aggregation string `json:"aggregation,omitempty"`
	// AggParam is the rule's knob (fedbuff exponent, fedprox mu); 0 means
	// the rule default.
	AggParam float64 `json:"agg_param,omitempty"`
	// Model sizes the bilinear LM the fleet trains.
	Model ModelSpec `json:"model"`
	// Data configures the lmdata corpus and its per-client partition.
	Data DataSpec `json:"data"`
	// Goal is the aggregation goal K (client updates per server step).
	Goal int `json:"goal"`
	// Concurrency caps clients training simultaneously (Appendix E.1).
	Concurrency int `json:"concurrency"`
	// MaxStaleness aborts async sessions beyond it; 0 means unlimited.
	MaxStaleness int `json:"max_staleness,omitempty"`
	// ChunkSize is the upload chunk size in elements; 0 means the model
	// uploads in one chunk.
	ChunkSize int `json:"chunk_size,omitempty"`
	// Attempts is the fixed number of participation attempts every client
	// makes. A fixed per-client attempt budget (rather than a global
	// upload target) keeps the fault schedule well-defined independent of
	// scheduling, so traces are comparable across worker counts.
	Attempts int `json:"attempts"`
	// BaseTrainMillis is the simulated device compute per attempt at
	// slowdown 1; a tier's delay is BaseTrainMillis * Slowdown, jittered
	// deterministically per attempt. 0 disables pacing.
	BaseTrainMillis float64 `json:"base_train_millis,omitempty"`
	// Network is the fabric-level fault profile, applied through
	// transport.FaultInjector when the fabric supports it.
	Network NetworkSpec `json:"network,omitempty"`
	// DP enables central differential privacy on the task (server-side
	// clipping plus Gaussian noise on every release). nil runs without DP.
	DP *DPSpec `json:"dp,omitempty"`
	// Tiers partitions the fleet into device classes.
	Tiers []Tier `json:"tiers"`
}

// DPSpec is the scenario's central-DP block, mirroring dp.Config field for
// field (see docs/DEPLOYMENT.md "Differential privacy" for semantics).
type DPSpec struct {
	// Clip is the L2 clip bound enforced server-side on every update.
	Clip float64 `json:"clip"`
	// NoiseMultiplier is the Gaussian noise multiplier z.
	NoiseMultiplier float64 `json:"noise_multiplier"`
	// Delta is the target delta for epsilon accounting; 0 means 1e-6.
	Delta float64 `json:"delta,omitempty"`
	// EpsilonBudget stops releases once one more would exceed it; 0 means
	// unlimited.
	EpsilonBudget float64 `json:"epsilon_budget,omitempty"`
	// Local additionally makes clients noise their own deltas on-device.
	Local bool `json:"local,omitempty"`
	// Seed pins the noise stream for reproducible runs. Leave 0 in any
	// profile whose output is treated as private: 0 selects crypto/rand
	// seeding, the only setting under which the DP guarantee holds.
	Seed uint64 `json:"seed,omitempty"`
}

// dpConfig resolves the spec's DP block into a dp.Config (nil without one).
func (s *Spec) dpConfig() *dp.Config {
	if s.DP == nil {
		return nil
	}
	delta := s.DP.Delta
	if delta == 0 {
		delta = 1e-6
	}
	return &dp.Config{
		Clip:            s.DP.Clip,
		NoiseMultiplier: s.DP.NoiseMultiplier,
		Delta:           delta,
		Seed:            s.DP.Seed,
		EpsilonBudget:   s.DP.EpsilonBudget,
		Local:           s.DP.Local,
	}
}

// ModelSpec sizes the scenario's bilinear language model.
type ModelSpec struct {
	// Vocab is the vocabulary size.
	Vocab int `json:"vocab"`
	// Dim is the embedding dimension.
	Dim int `json:"dim"`
}

// DataSpec configures the synthetic corpus and its non-IID partition.
type DataSpec struct {
	// Dialects is the number of corpus dialects.
	Dialects int `json:"dialects"`
	// DialectWeight in [0,1] is how strongly a client's examples skew
	// toward its dialect (lmdata mixture weight); 0 is IID.
	DialectWeight float64 `json:"dialect_weight"`
	// ExamplesPerClient is each client's local dataset size.
	ExamplesPerClient int `json:"examples_per_client"`
}

// NetworkSpec is the scenario's transport fault profile.
type NetworkSpec struct {
	// LossProb in [0,1) is the independent per-call drop probability
	// (FaultInjector.SetLoss).
	LossProb float64 `json:"loss_prob,omitempty"`
	// LatencyMillis is a fixed per-call latency (FaultInjector.SetLatency).
	LatencyMillis float64 `json:"latency_millis,omitempty"`
}

// Tier is one device class in the fleet.
type Tier struct {
	// Name labels the tier in traces, reports, and latency columns.
	Name string `json:"name"`
	// Clients is the number of devices in the tier.
	Clients int `json:"clients"`
	// Slowdown is the tier's CPU slowdown factor (>= 1 in sensible
	// scenarios; 0 means 1). Device compute per attempt is
	// BaseTrainMillis * Slowdown, slept inside the session so slow tiers
	// hold sessions longer and accumulate real staleness.
	Slowdown float64 `json:"slowdown,omitempty"`
	// Dropout in [0,1] is the per-attempt probability the device dies
	// mid-session; the stage (after download, after train, mid-upload) is
	// drawn uniformly.
	Dropout float64 `json:"dropout,omitempty"`
	// Vanish makes the tier's dropouts silent (no fail-session call, so
	// the leaked virtual session exercises the server's TTL reaper)
	// instead of explicitly reported.
	Vanish bool `json:"vanish,omitempty"`
	// Availability in [0,1] is the per-attempt probability the device is
	// eligible at all (its availability window is open); 0 means 1.
	Availability float64 `json:"availability,omitempty"`
	// Dialect pins the tier's clients to one corpus dialect (non-IID by
	// tier). nil spreads clients across dialects round-robin by ID.
	Dialect *int `json:"dialect,omitempty"`
}

// Load parses and validates a scenario from JSON bytes. Unknown fields are
// rejected so profile typos fail loudly.
func Load(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadFile reads and validates a scenario file.
func LoadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Load(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate reports specification errors.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: name is required")
	case s.Mode != "" && s.Mode != "async" && s.Mode != "sync":
		return fmt.Errorf("scenario: mode %q (want async|sync)", s.Mode)
	case s.Model.Vocab < 2 || s.Model.Dim < 1:
		return fmt.Errorf("scenario: model needs vocab >= 2 and dim >= 1")
	case s.Data.Dialects < 1:
		return fmt.Errorf("scenario: data.dialects must be >= 1")
	case s.Data.DialectWeight < 0 || s.Data.DialectWeight > 1:
		return fmt.Errorf("scenario: data.dialect_weight must be in [0,1]")
	case s.Data.ExamplesPerClient < 1:
		return fmt.Errorf("scenario: data.examples_per_client must be >= 1")
	case s.Goal < 1:
		return fmt.Errorf("scenario: goal must be >= 1")
	case s.Concurrency < 1:
		return fmt.Errorf("scenario: concurrency must be >= 1")
	case s.MaxStaleness < 0:
		return fmt.Errorf("scenario: max_staleness must be >= 0")
	case s.ChunkSize < 0:
		return fmt.Errorf("scenario: chunk_size must be >= 0")
	case s.Attempts < 1:
		return fmt.Errorf("scenario: attempts must be >= 1")
	case s.BaseTrainMillis < 0:
		return fmt.Errorf("scenario: base_train_millis must be >= 0")
	case s.Network.LossProb < 0 || s.Network.LossProb >= 1:
		return fmt.Errorf("scenario: network.loss_prob must be in [0,1)")
	case s.Network.LatencyMillis < 0:
		return fmt.Errorf("scenario: network.latency_millis must be >= 0")
	case len(s.Tiers) == 0:
		return fmt.Errorf("scenario: at least one tier is required")
	}
	if _, err := fedopt.AggregationByName(s.Aggregation, s.AggParam); err != nil {
		return err
	}
	if cfg := s.dpConfig(); cfg != nil {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("scenario: dp: %w", err)
		}
	}
	for i, t := range s.Tiers {
		switch {
		case t.Name == "":
			return fmt.Errorf("scenario: tier %d: name is required", i)
		case t.Clients < 1:
			return fmt.Errorf("scenario: tier %q: clients must be >= 1", t.Name)
		case t.Slowdown < 0:
			return fmt.Errorf("scenario: tier %q: slowdown must be >= 0", t.Name)
		case t.Dropout < 0 || t.Dropout > 1:
			return fmt.Errorf("scenario: tier %q: dropout must be in [0,1]", t.Name)
		case t.Availability < 0 || t.Availability > 1:
			return fmt.Errorf("scenario: tier %q: availability must be in [0,1]", t.Name)
		case t.Dialect != nil && (*t.Dialect < 0 || *t.Dialect >= s.Data.Dialects):
			return fmt.Errorf("scenario: tier %q: dialect %d out of range [0,%d)",
				t.Name, *t.Dialect, s.Data.Dialects)
		}
	}
	return nil
}

// Algorithm resolves the spec's aggregation mode.
func (s *Spec) Algorithm() task.Mode {
	if s.Mode == "sync" {
		return task.Sync
	}
	return task.Async
}

// NumClients is the fleet size across all tiers.
func (s *Spec) NumClients() int {
	n := 0
	for _, t := range s.Tiers {
		n += t.Clients
	}
	return n
}

// TierOf maps a client ID (1-based, contiguous across tiers in spec
// order) to its tier index. IDs outside the fleet panic.
func (s *Spec) TierOf(clientID int64) int {
	id := clientID - 1
	for i, t := range s.Tiers {
		if id < int64(t.Clients) {
			return i
		}
		id -= int64(t.Clients)
	}
	panic(fmt.Sprintf("scenario: client %d outside fleet of %d", clientID, s.NumClients()))
}

// DialectOf maps a client to its corpus dialect: the tier's pinned dialect
// when set, otherwise round-robin by client ID.
func (s *Spec) DialectOf(clientID int64) int {
	t := s.Tiers[s.TierOf(clientID)]
	if t.Dialect != nil {
		return *t.Dialect
	}
	return int(clientID) % s.Data.Dialects
}

// Plan is one (client, attempt)'s pre-drawn fault schedule. All of the
// attempt's randomness is drawn up front from the (Seed, clientID,
// attempt)-keyed RNG, so the plan — and therefore the event trace — is
// identical at any worker count.
type Plan struct {
	// Available reports whether the device's availability window is open
	// this attempt; a closed window skips the attempt entirely.
	Available bool
	// Drop is the stage at which the device dies (client.DropNone =
	// survives).
	Drop client.DropStage
	// Vanish makes the scheduled drop silent (tier semantics).
	Vanish bool
	// Delay is the simulated device compute, slept inside the session
	// between download and training.
	Delay time.Duration
}

// dropStages is the uniform choice set for a scheduled dropout.
var dropStages = []client.DropStage{
	client.DropAfterDownload, client.DropAfterTrain, client.DropDuringUpload,
}

// PlanFor draws client clientID's fault schedule for one attempt. It is a
// pure function of (Seed, clientID, attempt): the root RNG stays frozen
// and each attempt's stream is split off it, the same keying discipline as
// client SGD seeding (PR 1 rule), so plans are reproducible regardless of
// which worker evaluates them in which order.
func (s *Spec) PlanFor(clientID int64, attempt int) Plan {
	tier := s.Tiers[s.TierOf(clientID)]
	r := rng.New(s.Seed).SplitUint64(uint64(clientID)).SplitAt("attempt", uint64(attempt))

	// Draw order is part of the schedule's definition: availability,
	// dropout, stage, pacing jitter — always all four, so the plan never
	// depends on which earlier draw short-circuited.
	availDraw := r.Float64()
	dropDraw := r.Float64()
	stageDraw := r.Intn(len(dropStages))
	jitter := r.Float64()

	p := Plan{Available: true}
	if tier.Availability > 0 && availDraw >= tier.Availability {
		p.Available = false
	}
	if tier.Dropout > 0 && dropDraw < tier.Dropout {
		p.Drop = dropStages[stageDraw]
		p.Vanish = tier.Vanish
	}
	if s.BaseTrainMillis > 0 {
		slow := tier.Slowdown
		if slow <= 0 {
			slow = 1
		}
		// Jitter in [0.5, 1.5) around the tier's nominal compute time.
		millis := s.BaseTrainMillis * slow * (0.5 + jitter)
		p.Delay = time.Duration(millis * float64(time.Millisecond))
	}
	return p
}
