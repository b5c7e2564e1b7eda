// Benchmarks: one per table/figure in the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out.
//
// Each figure bench regenerates its experiment end to end at ScaleSmall so
// that `go test -bench=.` stays tractable on one core; the paper-scale runs
// (same code, ScalePaper) are produced by `go run ./cmd/papaya all -scale
// paper` and recorded in EXPERIMENTS.md. Benches report the experiment's
// headline quantity via b.ReportMetric so regressions in *results* (not just
// runtime) are visible.
package papaya_test

import (
	"crypto/rand"
	"strconv"
	"strings"
	"testing"

	papaya "repro"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/fedopt"
	"repro/internal/secagg"
	"repro/internal/tee"
)

// cell parses a numeric table cell, tolerating the ">X (cap)" form.
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimPrefix(s, ">")
	if i := strings.Index(s, " "); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func benchExperiment(b *testing.B, id string, metric func(*experiments.Table) (float64, string)) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := experiments.ScaleSmall()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = e.Run(s)
	}
	if metric != nil {
		v, unit := metric(tab)
		b.ReportMetric(v, unit)
	}
}

func BenchmarkFigure2(b *testing.B) {
	benchExperiment(b, "fig2", nil)
}

func BenchmarkFigure3(b *testing.B) {
	benchExperiment(b, "fig3", func(t *experiments.Table) (float64, string) {
		last := t.Rows[len(t.Rows)-1]
		return cell(b, last[2]), "comm-trips"
	})
}

func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, "fig6", func(t *experiments.Table) (float64, string) {
		last := t.Rows[len(t.Rows)-1]
		return cell(b, last[3]), "naive/async"
	})
}

func BenchmarkFigure7(b *testing.B) {
	benchExperiment(b, "fig7", nil)
}

func BenchmarkFigure8(b *testing.B) {
	benchExperiment(b, "fig8", func(t *experiments.Table) (float64, string) {
		last := t.Rows[len(t.Rows)-1]
		return cell(b, last[3]), "async/sync-upd-rate"
	})
}

func BenchmarkFigure9(b *testing.B) {
	benchExperiment(b, "fig9", func(t *experiments.Table) (float64, string) {
		last := t.Rows[len(t.Rows)-1]
		return cell(b, last[3]), "speedup"
	})
}

func BenchmarkFigure10(b *testing.B) {
	benchExperiment(b, "fig10", func(t *experiments.Table) (float64, string) {
		return cell(b, t.Rows[0][2]), "upd/h@minK"
	})
}

func BenchmarkFigure11(b *testing.B) {
	benchExperiment(b, "fig11", func(t *experiments.Table) (float64, string) {
		return cell(b, t.Rows[1][4]), "KS-D-syncOS"
	})
}

func BenchmarkFigure12(b *testing.B) {
	benchExperiment(b, "fig12", nil)
}

func BenchmarkFigure13(b *testing.B) {
	benchExperiment(b, "fig13", nil)
}

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", func(t *experiments.Table) (float64, string) {
		return cell(b, t.Rows[2][3]), "async-p99-ppl"
	})
}

// --- Ablations ---

// BenchmarkParallelTrainingWorkers measures the parallel training engine on
// a Figure 2-class FedBuff workload (training enabled) across worker-pool
// sizes. On a multi-core host the workers>=4 variants should cut wall-clock
// by >=2x over workers=1; `papaya bench` records the same sweep as JSON
// (BENCH_baseline.json) together with the host topology. The final-params
// hash is reported so a determinism regression across worker counts is
// visible directly in the bench output.
func BenchmarkParallelTrainingWorkers(b *testing.B) {
	w := experiments.BuildWorld(experiments.ScaleSmall())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			var hash uint64
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Algorithm:        core.Async,
					Concurrency:      80,
					AggregationGoal:  10,
					Seed:             1,
					EvalSeqs:         w.Eval,
					EvalEvery:        10,
					MaxServerUpdates: 120,
					Workers:          workers,
				}
				hash = core.Run(w.Model, w.Corpus, w.Pop, cfg).FinalParamsHash()
			}
			b.ReportMetric(float64(hash%1e6), "params-hash-mod1e6")
		})
	}
}

// BenchmarkAblationStalenessWeight compares FedBuff's 1/sqrt(1+s)
// down-weighting against no weighting in a deliberately stale regime
// (small K, large concurrency). The reported metric is final eval loss:
// the weighting should never hurt and typically helps.
func BenchmarkAblationStalenessWeight(b *testing.B) {
	w := experiments.BuildWorld(experiments.ScaleSmall())
	run := func(rule fedopt.Aggregation) float64 {
		cfg := core.Config{
			Algorithm:        core.Async,
			Concurrency:      80,
			AggregationGoal:  5,
			Seed:             3,
			EvalSeqs:         w.Eval,
			EvalEvery:        10,
			MaxServerUpdates: 200,
			Aggregation:      rule,
		}
		return core.Run(w.Model, w.Corpus, w.Pop, cfg).FinalLoss
	}
	b.Run("polynomial", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			loss = run(fedopt.DefaultAggregation())
		}
		b.ReportMetric(loss, "final-loss")
	})
	b.Run("constant", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			loss = run(fedopt.FedAvg{})
		}
		b.ReportMetric(loss, "final-loss")
	})
}

// BenchmarkAblationAggregationShards measures the parallel-aggregation
// design of Section 6.3: sharded intermediate aggregates versus a single
// contended buffer, under concurrent writers.
func BenchmarkAblationAggregationShards(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			buf := buffer.New(2048, 1<<30, shards)
			u := make([]float32, 2048)
			for i := range u {
				u[i] = 0.01
			}
			b.SetBytes(2048 * 4)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					buf.Add(u, 1, i)
					i++
				}
			})
		})
	}
}

// BenchmarkAblationMaxStaleness sweeps the staleness-abort threshold
// (Appendix E.1/E.2): tighter bounds discard more work.
func BenchmarkAblationMaxStaleness(b *testing.B) {
	w := experiments.BuildWorld(experiments.ScaleSmall())
	for _, maxS := range []int{0, 2, 8} {
		b.Run("max="+strconv.Itoa(maxS), func(b *testing.B) {
			var discarded float64
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Algorithm:        core.Async,
					Concurrency:      80,
					AggregationGoal:  5,
					MaxStaleness:     maxS,
					Seed:             4,
					NoTraining:       true,
					MaxServerUpdates: 300,
					MaxSimTime:       1e9,
				}
				res := core.Run(w.Model, w.Corpus, w.Pop, cfg)
				discarded = float64(res.Discarded)
			}
			b.ReportMetric(discarded, "discarded")
		})
	}
}

// BenchmarkAblationSecAggOverhead compares plaintext aggregation against the
// full Asynchronous SecAgg protocol for one K-client aggregate, isolating
// the privacy tax (masking, DH, enclave boundary).
func BenchmarkAblationSecAggOverhead(b *testing.B) {
	const dim, k = 2048, 16
	update := make([]float32, dim)
	for i := range update {
		update[i] = 0.01
	}
	b.Run("plaintext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := buffer.New(dim, k, 4)
			for c := 0; c < k; c++ {
				buf.Add(update, 1, c)
			}
			buf.Release()
		}
	})
	b.Run("secagg", func(b *testing.B) {
		params := secagg.Params{VecLen: dim, Threshold: k, Scale: 1 << 16}
		dep, err := secagg.NewDeployment(params, []byte("bench-tsa"),
			tee.DefaultCostModel(), rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		trust := dep.ClientTrust()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bundles, err := dep.FetchInitialBundles(k)
			if err != nil {
				b.Fatal(err)
			}
			agg := dep.NewAggregator()
			for c := 0; c < k; c++ {
				sess, err := secagg.NewClientSession(trust, bundles[c], rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				up, err := sess.MaskUpdate(update, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				if err := agg.Add(up); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, err := agg.Unmask(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDPNoise measures the utility cost of the differential
// privacy extension across noise multipliers (final eval loss after a fixed
// budget; z=0 is the non-private baseline).
func BenchmarkAblationDPNoise(b *testing.B) {
	w := experiments.BuildWorld(experiments.ScaleSmall())
	for _, z := range []float64{0, 0.3, 1.0} {
		name := "z=" + strconv.FormatFloat(z, 'g', -1, 64)
		b.Run(name, func(b *testing.B) {
			var loss, eps float64
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Algorithm:        core.Async,
					Concurrency:      60,
					AggregationGoal:  10,
					Seed:             9,
					EvalSeqs:         w.Eval,
					EvalEvery:        20,
					MaxServerUpdates: 60,
				}
				if z > 0 {
					cfg.DP = &dp.Config{Clip: 1, NoiseMultiplier: z, Delta: 1e-6, Seed: 9}
				}
				res := core.Run(w.Model, w.Corpus, w.Pop, cfg)
				loss, eps = res.FinalLoss, res.DPEpsilon
			}
			b.ReportMetric(loss, "final-loss")
			if z > 0 {
				b.ReportMetric(eps, "epsilon")
			}
		})
	}
}

// BenchmarkPublicAPIRun exercises the facade end to end: the quickstart
// configuration as a benchmark.
func BenchmarkPublicAPIRun(b *testing.B) {
	model := papaya.NewBilinearLM(16, 4)
	corpusCfg := papaya.DefaultCorpusConfig()
	corpusCfg.VocabSize = 16
	corpusCfg.NumDialects = 4
	corpus := papaya.NewCorpus(corpusCfg)
	popCfg := papaya.DefaultPopulationConfig()
	popCfg.Size = 100_000
	popCfg.NumDialects = 4
	pop := papaya.NewPopulation(popCfg)
	eval := corpus.EvalSet(0, 0.5, 50, "bench")
	for i := 0; i < b.N; i++ {
		cfg := papaya.Config{
			Algorithm:        papaya.Async,
			Concurrency:      40,
			AggregationGoal:  10,
			Seed:             uint64(i + 1),
			EvalSeqs:         eval,
			EvalEvery:        10,
			MaxServerUpdates: 20,
		}
		papaya.Run(model, corpus, pop, cfg)
	}
}
