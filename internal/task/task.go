// Package task is one federated task's release policy as a sans-IO state
// machine: the staleness gate and weighting (Appendix E.1/E.2), the goal-K
// trigger of buffered aggregation (Section 6.3), the central-DP release
// and its epsilon-budget gate, the optimizer step, the post-step aborts,
// and the runtime SyncFL/AsyncFL switch (Appendix E.3).
//
// The simulator (internal/core) and the served aggregator (internal/server)
// both drive it, each with its own sessions, buffer, and concurrency. It
// holds no locks and allocates nothing per upload; the caller serializes it.
package task

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/dp"
	"repro/internal/fedopt"
)

// Mode selects the aggregation protocol.
type Mode string

const (
	Async Mode = "async" // FedBuff: release every K accepted updates
	Sync  Mode = "sync"  // rounds: a release aborts the rest of the cohort
)

// Refusal and abort reasons, as reported to clients.
const (
	BudgetExhausted   = "budget_exhausted"
	StalenessExceeded = "staleness exceeded"
	RoundClosed       = "round closed"
)

// Config parameterizes a Machine. Aggregation and Optimizer are required;
// DP, if set, must be valid; Version is the starting model version.
type Config struct {
	Mode         Mode
	Goal         int
	MaxStaleness int // 0 = unlimited
	Aggregation  fedopt.Aggregation
	Optimizer    fedopt.Optimizer
	DP           *dp.Config
	Version      int
}

// Machine is one task's release state machine. It is not safe for
// concurrent use.
type Machine struct {
	cfg       Config // Mode, Goal, MaxStaleness and Version are live
	dp        *dp.Mechanism
	exhausted bool
}

// New returns a machine, or an error for an invalid configuration.
func New(cfg Config) (*Machine, error) {
	if cfg.Aggregation == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("task: nil aggregation rule or optimizer")
	}
	m := &Machine{cfg: cfg}
	if err := m.Reconfigure(cfg.Mode, cfg.Goal, cfg.MaxStaleness); err != nil {
		return nil, err
	}
	if cfg.DP != nil {
		m.dp = dp.New(*cfg.DP)
	}
	return m, nil
}

// Reconfigure switches the release policy at runtime (Appendix E.3).
// Buffered updates carry over: a buffer already at or past the new goal
// releases on the next Ready.
func (m *Machine) Reconfigure(mode Mode, goal, maxStaleness int) error {
	switch {
	case mode != Async && mode != Sync:
		return fmt.Errorf("task: unknown mode %q", mode)
	case goal < 1:
		return fmt.Errorf("task: aggregation goal must be >= 1, got %d", goal)
	case maxStaleness < 0:
		return fmt.Errorf("task: max staleness must be >= 0, got %d", maxStaleness)
	}
	m.cfg.Mode, m.cfg.Goal, m.cfg.MaxStaleness = mode, goal, maxStaleness
	return nil
}

// Admit decides whether a finished upload from a session that started at
// startVersion may enter the buffer: it returns the upload's staleness and
// "", or the refusal reason.
func (m *Machine) Admit(startVersion int) (staleness int, refusal string) {
	if m.exhausted {
		return 0, BudgetExhausted
	}
	staleness = m.cfg.Version - startVersion
	if m.cfg.MaxStaleness > 0 && staleness > m.cfg.MaxStaleness {
		return staleness, StalenessExceeded
	}
	return staleness, ""
}

// Weight is the aggregation rule's weight for an admitted upload.
func (m *Machine) Weight(numExamples, staleness int) float64 {
	return m.cfg.Aggregation.Weight(numExamples, staleness)
}

// Ready reports whether the caller releases now, given its count of
// accepted, unreleased updates (the goal is at least 1, so a release never
// runs on an empty buffer). If the goal is met but one more release would
// exceed the epsilon budget, the machine becomes Exhausted instead: the
// updates stay unreleased, nothing is spent, and the task is complete.
func (m *Machine) Ready(buffered int) bool {
	if buffered < m.cfg.Goal {
		return false
	}
	if m.dp != nil && !m.dp.CanRelease() {
		m.exhausted = true
		return false
	}
	return true
}

// Step applies one release to params and advances the version: DP noise
// calibrated to the weight statistics, then the rule's Transform, then the
// optimizer (both post-process the noised mean). Systems-only callers pass
// nil vectors; SecAgg callers (never DP) pass zero stats.
func (m *Machine) Step(params, update []float32, stats buffer.ReleaseStats) {
	if update != nil {
		if m.dp != nil {
			m.dp.NoiseRelease(update, dp.Release{
				N: stats.N, TotalWeight: stats.TotalWeight, MaxWeight: stats.MaxWeight,
			})
		}
		m.cfg.Aggregation.Transform(update)
		m.cfg.Optimizer.Step(params, update)
	}
	m.cfg.Version++
}

// Aborted is the predicate callers apply to every open session after a
// Step or exhaustion: every session once the budget is spent or a Sync
// round closes, the ones now beyond MaxStaleness in Async (Appendix E.2).
// It returns the reason, or "" for a session that keeps training.
func (m *Machine) Aborted(startVersion int) string {
	switch {
	case m.exhausted:
		return BudgetExhausted
	case m.cfg.Mode == Sync:
		return RoundClosed
	case m.cfg.MaxStaleness > 0 && m.cfg.Version-startVersion > m.cfg.MaxStaleness:
		return StalenessExceeded
	}
	return ""
}

// Mode returns the current aggregation mode.
func (m *Machine) Mode() Mode { return m.cfg.Mode }

// Version returns the current model version.
func (m *Machine) Version() int { return m.cfg.Version }

// Exhausted reports whether the epsilon budget refused a release; every
// Admit refuses from then on.
func (m *Machine) Exhausted() bool { return m.exhausted }

// DP returns the DP mechanism (nil without DP). The pointer is fixed at
// New, so reading it needs no lock, and its ClipUpdate is stateless.
func (m *Machine) DP() *dp.Mechanism { return m.dp }
