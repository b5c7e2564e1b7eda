package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dp"
)

// goldenPin is the absolute outcome of one simulator configuration: the
// final-model hash plus every counter and the last loss point. Floats are
// pinned by bit pattern, so any change to the order or arithmetic of the
// release path shows up here even when the cross-worker determinism tests
// still agree with themselves.
type goldenPin struct {
	paramsHash    uint64
	serverUpdates int
	commTrips     int64
	discarded     int64
	dropouts      int64
	timeouts      int64
	dpEpsilon     uint64 // math.Float64bits
	lastLossT     uint64 // math.Float64bits
	lastLossV     uint64 // math.Float64bits
}

func pinOf(res *Result) goldenPin {
	p := goldenPin{
		paramsHash:    res.FinalParamsHash(),
		serverUpdates: res.ServerUpdates,
		commTrips:     res.CommTrips,
		discarded:     res.Discarded,
		dropouts:      res.Dropouts,
		timeouts:      res.Timeouts,
		dpEpsilon:     math.Float64bits(res.DPEpsilon),
	}
	if n := len(res.LossCurve); n > 0 {
		p.lastLossT = math.Float64bits(res.LossCurve[n-1].T)
		p.lastLossV = math.Float64bits(res.LossCurve[n-1].V)
	}
	return p
}

func (p goldenPin) String() string {
	return fmt.Sprintf("{%#x, %d, %d, %d, %d, %d, %#x, %#x, %#x}",
		p.paramsHash, p.serverUpdates, p.commTrips, p.discarded, p.dropouts,
		p.timeouts, p.dpEpsilon, p.lastLossT, p.lastLossV)
}

// TestSimulatorGolden pins absolute simulator outcomes for five
// configurations covering every release-path branch: plain async, async
// with staleness aborts, sync with over-selection discards, async with
// central DP, and the systems-only NoTraining path. On a mismatch the
// message prints the observed pin in table syntax.
func TestSimulatorGolden(t *testing.T) {
	w := newTestWorld()
	cases := []struct {
		name string
		cfg  func() Config
		want goldenPin
	}{
		{"async", func() Config {
			cfg := asyncCfg()
			cfg.EvalSeqs = w.eval
			return cfg
		}, goldenPin{0xe0ce1e1abfd0a7d9, 40, 400, 0, 10, 2, 0x0, 0x407236967d8a54a8, 0x40044b3bcbfedadf}},
		{"async-max-staleness", func() Config {
			cfg := asyncCfg()
			cfg.EvalSeqs = w.eval
			cfg.MaxStaleness = 2
			cfg.Concurrency = 60
			cfg.AggregationGoal = 5
			return cfg
		}, goldenPin{0x4a16b90927476998, 40, 200, 605, 10, 0, 0x0, 0x4056c33400738087, 0x40046d2e4d4af44c}},
		{"sync-over-selection", func() Config {
			cfg := syncCfg()
			cfg.EvalSeqs = w.eval
			return cfg
		}, goldenPin{0xe76708ac5d8ce9f0, 10, 310, 90, 14, 0, 0x0, 0x4079094916021ca1, 0x40057fd35a3b7a6c}},
		{"async-dp", func() Config {
			cfg := asyncCfg()
			cfg.EvalSeqs = w.eval
			cfg.DP = &dp.Config{Clip: 1, NoiseMultiplier: 0.5, Delta: 1e-6, Seed: 11}
			return cfg
		}, goldenPin{0x4b0b38d2298706cb, 40, 400, 0, 10, 2, 0x40624fb0beffedbf, 0x407236967d8a54a8, 0x400649d33467209a}},
		{"async-no-training", func() Config {
			cfg := asyncCfg()
			cfg.NoTraining = true
			cfg.MaxStaleness = 3
			cfg.Concurrency = 80
			return cfg
		}, goldenPin{0x0, 40, 400, 520, 22, 0, 0x0, 0x0, 0x0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Workers = 2
			got := pinOf(Run(w.model, w.corpus, w.pop, cfg))
			if got != tc.want {
				t.Fatalf("pin = %v, want %v", got, tc.want)
			}
		})
	}
}
