package task_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/server"
	"repro/internal/task"
	"repro/internal/transport"
)

// TestEpsilonBudgetSameInSimulatorAndServer: with an epsilon budget that
// covers exactly k releases (EpsilonAfter(k) <= budget < EpsilonAfter(k+1)),
// the simulator halts after exactly k releases and reports exhaustion, and
// a served task on the in-memory fabric under the same dp.Config completes
// with status budget_exhausted at the same k. Both run the one budget gate
// in the release machine.
func TestEpsilonBudgetSameInSimulatorAndServer(t *testing.T) {
	const k = 3
	cfg := dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 5}
	probe := dp.New(cfg)
	cfg.EpsilonBudget = (probe.EpsilonAfter(k) + probe.EpsilonAfter(k+1)) / 2

	t.Run("simulator", func(t *testing.T) {
		corpus := lmdata.NewCorpus(lmdata.Config{
			VocabSize: 16, NumDialects: 4, Seed: 3,
			SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
		})
		popCfg := population.DefaultConfig()
		popCfg.Size = 10_000
		popCfg.NumDialects = 4
		dpc := cfg
		res := core.Run(nn.NewBilinear(16, 4), corpus, population.New(popCfg), core.Config{
			Algorithm:        core.Async,
			Concurrency:      20,
			AggregationGoal:  4,
			Seed:             1,
			MaxServerUpdates: 50,
			DP:               &dpc,
			Workers:          2,
		})
		if res.ServerUpdates != k || !res.BudgetExhausted {
			t.Fatalf("ServerUpdates = %d, BudgetExhausted = %v; want %d, true", res.ServerUpdates, res.BudgetExhausted, k)
		}
		if want := probe.EpsilonAfter(k); res.DPEpsilon != want {
			t.Fatalf("DPEpsilon = %v, want EpsilonAfter(%d) = %v", res.DPEpsilon, k, want)
		}
	})

	t.Run("server", func(t *testing.T) {
		const numParams = 8
		timings := server.Timings{
			Heartbeat: 10 * time.Millisecond, FailureDeadline: 60 * time.Millisecond,
			MapRefresh: 15 * time.Millisecond, RecoveryPeriod: 50 * time.Millisecond,
			SelectorJoinWait: 5 * time.Millisecond, SessionTTL: 30 * time.Second,
		}
		net := transport.NewNetwork(1)
		coord := server.NewCoordinator("coordinator", net, timings, 3, false)
		defer coord.Stop()
		agg := server.NewAggregator("agg-budget", net, "coordinator", timings)
		defer agg.Stop()
		if _, err := net.Call("test", "coordinator", "register-aggregator", "agg-budget"); err != nil {
			t.Fatal(err)
		}
		dpc := cfg
		if _, err := net.Call("test", "coordinator", "create-task", server.TaskSpec{
			ID: "budget", Mode: task.Async, NumParams: numParams, Concurrency: 8,
			AggregationGoal: 4, Capability: "lm", InitParams: make([]float32, numParams), DP: &dpc,
		}); err != nil {
			t.Fatal(err)
		}
		delta := make([]float32, numParams)
		for i := range delta {
			delta[i] = 0.1
		}
		for client := int64(0); ; client++ {
			if client > 100 {
				t.Fatal("budget never ran out")
			}
			resp, err := net.Call("test", "agg-budget", "join", server.JoinRequest{TaskID: "budget", ClientID: client})
			if err != nil {
				t.Fatal(err)
			}
			jr := resp.(server.JoinResponse)
			if !jr.Accepted {
				if jr.Reason != task.BudgetExhausted {
					t.Fatalf("join refused with %q", jr.Reason)
				}
				break
			}
			resp, err = net.Call("test", "agg-budget", "upload-chunk", server.UploadChunk{
				TaskID: "budget", SessionID: jr.SessionID, Data: delta, Done: true, NumExamples: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ur := resp.(server.UploadResponse); !ur.OK {
				t.Fatalf("upload refused: %s", ur.Reason)
			}
		}
		resp, err := net.Call("test", "agg-budget", "task-info", "budget")
		if err != nil {
			t.Fatal(err)
		}
		info := resp.(server.TaskInfo)
		if info.Version != k || info.DPReleases != k || !info.DPExhausted {
			t.Fatalf("version %d, releases %d, exhausted %v; want %d, %d, true",
				info.Version, info.DPReleases, info.DPExhausted, k, k)
		}
		if want := probe.EpsilonAfter(k); info.DPEpsilon != want {
			t.Fatalf("DPEpsilon = %v, want EpsilonAfter(%d) = %v", info.DPEpsilon, k, want)
		}
	})
}
