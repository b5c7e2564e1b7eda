package task

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/rng"
)

// dstSeeds is how many seeded op sequences TestMachineOps replays.
const dstSeeds = 1200

// refModel is the reference the machine is checked against after every
// op: an independent, obviously-correct restatement of the release policy.
type refModel struct {
	mode         Mode
	goal         int
	maxStaleness int
	version      int
	exhausted    bool
	buffered     int
	totalW, maxW float64
	open         []int // start versions of open sessions
}

// dstRun drives one seeded sequence of join, admit, reconfigure, and step
// ops through a machine and the reference model, failing on the first
// divergence. Everything — the policy, the rule, the DP budget, and every
// op — is drawn from the seed, so a failing seed replays exactly.
func dstRun(t *testing.T, seed uint64) {
	r := rng.New(seed)
	rules := []fedopt.Aggregation{fedopt.FedAvg{}, fedopt.NewFedBuff(0.5), fedopt.NewFedBuff(1), fedopt.NewFedProx(0.1)}
	rule := rules[r.Intn(len(rules))]
	modes := []Mode{Async, Sync}
	ref := refModel{mode: modes[r.Intn(2)], goal: 1 + r.Intn(4), maxStaleness: r.Intn(4)}

	var dpc *dp.Config
	budget := 0.0
	if r.Bernoulli(0.6) {
		dpc = &dp.Config{Clip: 1, NoiseMultiplier: 0.5 + r.Float64(), Delta: 1e-6, Seed: seed + 1}
		if k := r.Intn(6); k > 0 {
			// A budget strictly between EpsilonAfter(k) and EpsilonAfter(k+1)
			// admits exactly k releases.
			probe := dp.New(*dpc)
			dpc.EpsilonBudget = (probe.EpsilonAfter(k) + probe.EpsilonAfter(k+1)) / 2
			budget = dpc.EpsilonBudget
		}
	}
	m, err := New(Config{
		Mode: ref.mode, Goal: ref.goal, MaxStaleness: ref.maxStaleness,
		Aggregation: rule, Optimizer: fedopt.NewFedSGD(1), DP: dpc,
	})
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	mech := m.DP()
	params := make([]float32, 4)
	update := make([]float32, 4)

	// abortCheck applies the machine's abort predicate to every open
	// session and compares it with the reference: everyone once the
	// budget is spent, everyone in Sync, exactly the too-stale ones in
	// Async.
	abortCheck := func(op int) {
		kept := ref.open[:0]
		for _, start := range ref.open {
			want := ""
			switch {
			case ref.exhausted:
				want = BudgetExhausted
			case ref.mode == Sync:
				want = RoundClosed
			case ref.maxStaleness > 0 && ref.version-start > ref.maxStaleness:
				want = StalenessExceeded
			}
			if got := m.Aborted(start); got != want {
				t.Fatalf("seed %d op %d: Aborted(start=%d) at version %d = %q, want %q",
					seed, op, start, ref.version, got, want)
			}
			if want == "" {
				kept = append(kept, start)
			}
		}
		ref.open = kept
	}
	ready := func(op int) {
		want := ref.buffered >= ref.goal
		if want && mech != nil && budget > 0 && mech.EpsilonAfter(mech.Releases()+1) > budget {
			want = false
			ref.exhausted = true
		}
		got := m.Ready(ref.buffered)
		if got != want {
			t.Fatalf("seed %d op %d: Ready(%d) with goal %d = %v, want %v",
				seed, op, ref.buffered, ref.goal, got, want)
		}
		switch {
		case got:
			if ref.buffered == 0 {
				t.Fatalf("seed %d op %d: release on an empty buffer", seed, op)
			}
			for i := range update {
				update[i] = 0.01 * float32(i+1)
			}
			m.Step(params, update, buffer.ReleaseStats{
				N: ref.buffered, TotalWeight: ref.totalW, MaxWeight: ref.maxW,
			})
			ref.version++
			ref.buffered, ref.totalW, ref.maxW = 0, 0, 0
			abortCheck(op)
		case ref.exhausted:
			abortCheck(op)
		}
	}

	for op := 0; op < 200; op++ {
		switch k := r.Intn(10); {
		case k < 4: // a session joins at the current version
			if !ref.exhausted {
				ref.open = append(ref.open, ref.version)
			}
		case k < 7: // an open session finishes its upload
			if len(ref.open) == 0 {
				continue
			}
			i := r.Intn(len(ref.open))
			start := ref.open[i]
			ref.open = append(ref.open[:i], ref.open[i+1:]...)
			staleness, refusal := m.Admit(start)
			want := ""
			switch {
			case ref.exhausted:
				want = BudgetExhausted
			case ref.maxStaleness > 0 && ref.version-start > ref.maxStaleness:
				want = StalenessExceeded
			}
			if refusal != want {
				t.Fatalf("seed %d op %d: Admit(start=%d) at version %d refused %q, want %q",
					seed, op, start, ref.version, refusal, want)
			}
			if refusal != "" {
				continue
			}
			if staleness != ref.version-start {
				t.Fatalf("seed %d op %d: staleness %d, want %d", seed, op, staleness, ref.version-start)
			}
			n := r.Intn(20)
			w := m.Weight(n, staleness)
			if wantW := rule.Weight(n, staleness); w != wantW {
				t.Fatalf("seed %d op %d: Weight(%d, %d) = %v, want %v", seed, op, n, staleness, w, wantW)
			}
			ref.buffered++
			ref.totalW += w
			ref.maxW = math.Max(ref.maxW, w)
			ready(op)
		case k < 8: // the policy is reconfigured, sometimes invalidly
			mode, goal, maxStaleness := modes[r.Intn(2)], r.Intn(5), r.Intn(4)
			err := m.Reconfigure(mode, goal, maxStaleness)
			if (err != nil) != (goal < 1) {
				t.Fatalf("seed %d op %d: Reconfigure(%s, %d, %d) error = %v", seed, op, mode, goal, maxStaleness, err)
			}
			if err == nil {
				ref.mode, ref.goal, ref.maxStaleness = mode, goal, maxStaleness
			}
		default: // a trigger check with no new upload (e.g. after a goal cut)
			ready(op)
		}

		if m.Version() != ref.version {
			t.Fatalf("seed %d op %d: version %d, want %d (the number of steps)", seed, op, m.Version(), ref.version)
		}
		if m.Exhausted() != ref.exhausted {
			t.Fatalf("seed %d op %d: exhausted %v, want %v", seed, op, m.Exhausted(), ref.exhausted)
		}
		if ref.exhausted {
			if _, refusal := m.Admit(m.Version()); refusal != BudgetExhausted {
				t.Fatalf("seed %d op %d: Admit after exhaustion refused %q, want %q", seed, op, refusal, BudgetExhausted)
			}
		}
		if mech != nil {
			if mech.Releases() != m.Version() {
				t.Fatalf("seed %d op %d: %d DP releases at version %d", seed, op, mech.Releases(), m.Version())
			}
			if eps := mech.Epsilon(); eps != mech.EpsilonAfter(mech.Releases()) || (budget > 0 && eps > budget) {
				t.Fatalf("seed %d op %d: epsilon %v after %d releases, budget %v", seed, op, eps, mech.Releases(), budget)
			}
		}
	}
}

// TestMachineOps is the seeded deterministic op-sequence test: each
// subtest replays one seed's sequence against the reference model. A
// failure names its seed; `go test -run 'TestMachineOps/seed=N$'`
// replays it alone.
func TestMachineOps(t *testing.T) {
	for seed := uint64(0); seed < dstSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { dstRun(t, seed) })
	}
}

func TestNewRejectsInvalidPolicy(t *testing.T) {
	rule, opt := fedopt.DefaultAggregation(), fedopt.NewFedSGD(1)
	for _, cfg := range []Config{
		{Mode: "bogus", Goal: 1, Aggregation: rule, Optimizer: opt},
		{Mode: Async, Goal: 0, Aggregation: rule, Optimizer: opt},
		{Mode: Sync, Goal: 1, MaxStaleness: -1, Aggregation: rule, Optimizer: opt},
		{Mode: Async, Goal: 1, Optimizer: opt},
		{Mode: Async, Goal: 1, Aggregation: rule},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted an invalid policy", cfg)
		}
	}
}

// TestUploadPathAllocatesNothing: the per-upload calls (admit, weight,
// trigger check) allocate nothing.
func TestUploadPathAllocatesNothing(t *testing.T) {
	m, err := New(Config{
		Mode: Async, Goal: 4, MaxStaleness: 2,
		Aggregation: fedopt.DefaultAggregation(), Optimizer: fedopt.NewFedSGD(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s, _ := m.Admit(0)
		_ = m.Weight(7, s)
		_ = m.Ready(1)
	})
	if allocs != 0 {
		t.Fatalf("upload path allocates %v per call", allocs)
	}
}
