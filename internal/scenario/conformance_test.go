package scenario_test

// The scenario conformance suite: every committed fleet profile crossed
// with every aggregation rule, on every transport fabric. The in-memory
// cells always run (they are the `-race` tier); the networked cells are
// skipped under -short so `go test ./...` exercises the full matrix
// while the race step stays fast.

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

// scenarioFabric mirrors the backend table in internal/server's transport
// conformance suite (which lives in another test package and cannot be
// imported): same constructions, same names.
type scenarioFabric struct {
	name   string
	stream bool
	make   func(t *testing.T, seed int64) transport.Fabric
}

var scenarioFabrics = []scenarioFabric{
	{name: "inmem", make: func(t *testing.T, seed int64) transport.Fabric {
		return transport.NewNetwork(seed)
	}},
	{name: "http-stream", stream: true, make: func(t *testing.T, seed int64) transport.Fabric {
		return httpFabric(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
	}},
	{name: "tcp", make: func(t *testing.T, seed int64) transport.Fabric {
		return tcpFabric(t, tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
	}},
	// Historical names: each once selected a deleted gob/JSON, per-call
	// POST or DEFLATE path and now pins one configuration the one wire
	// still accepts, with clients calling per request rather than pinning
	// a session (see the server conformance table).
	{name: "http", make: func(t *testing.T, seed int64) transport.Fabric {
		return httpFabric(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
	}},
	{name: "http-bin", make: func(t *testing.T, seed int64) transport.Fabric {
		return httpFabric(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Codec: "bin"})
	}},
	{name: "http-deflate", make: func(t *testing.T, seed int64) transport.Fabric {
		return httpFabric(t, httptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Stream: true})
	}},
	{name: "http-deflate-bin", make: func(t *testing.T, seed int64) transport.Fabric {
		return httpFabric(t, httptransport.Options{
			Listen: "127.0.0.1:0", Seed: seed, Codec: "bin", Stream: true, AckElide: true,
		})
	}},
	{name: "tcp-bin-deflate", make: func(t *testing.T, seed int64) transport.Fabric {
		return tcpFabric(t, tcptransport.Options{
			Listen: "127.0.0.1:0", Seed: seed, Codec: "bin", AckElide: true,
		})
	}},
}

func httpFabric(t *testing.T, o httptransport.Options) transport.Fabric {
	t.Helper()
	f, err := httptransport.New(o)
	if err != nil {
		t.Fatalf("starting http fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func tcpFabric(t *testing.T, o tcptransport.Options) transport.Fabric {
	t.Helper()
	f, err := tcptransport.New(o)
	if err != nil {
		t.Fatalf("starting tcp fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// conformanceRules are the aggregation crossings: the extracted FedAvg
// path in sync mode, the FedBuff staleness weighting in async mode, and
// the two-sided FedProx variant in async mode.
var conformanceRules = []struct {
	rule string
	mode string
}{
	{rule: "fedavg", mode: "sync"},
	{rule: "fedbuff", mode: "async"},
	{rule: "fedprox", mode: "async"},
}

// conformanceProfiles are the committed fleet profiles under test.
var conformanceProfiles = []string{"uniform", "tiered-stragglers", "flaky-network"}

// Convergence and throughput floors. The bounds are deliberately loose —
// deterministic lower bounds, not point estimates — because outcome counts
// vary with scheduling (the fault *schedule* is deterministic; which
// stragglers get aborted is not). The weakest measured cell
// (uniform/fedavg-sync) still improves eval loss by ~0.02, so a 0.003
// margin has wide headroom, and even the slowest fabric under -race
// clears half an upload per second by orders of magnitude.
const (
	lossMargin      = 0.003
	throughputFloor = 0.5 // accepted uploads per second
)

// TestScenarioConformance is the headline matrix: 3 committed profiles x
// 3 aggregation rules x 8 fabric cells, asserting convergence bounds,
// throughput floors, and report self-consistency for every cell.
func TestScenarioConformance(t *testing.T) {
	for _, fx := range scenarioFabrics {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			if fx.name != "inmem" && testing.Short() {
				t.Skipf("%s cells run in the full (no -short) matrix", fx.name)
			}
			for _, prof := range conformanceProfiles {
				for _, rc := range conformanceRules {
					rc := rc
					t.Run(prof+"/"+rc.rule, func(t *testing.T) {
						spec := loadSpec(t, prof)
						spec.Aggregation = rc.rule
						spec.AggParam = 0 // rule defaults
						spec.Mode = rc.mode
						rep, err := scenario.Run(spec, scenario.Options{
							Fabric:     fx.make(t, 1),
							FabricName: fx.name,
							Stream:     fx.stream,
						})
						if err != nil {
							t.Fatal(err)
						}
						assertConformance(t, spec, rep, rc.rule, rc.mode)
					})
				}
			}
		})
	}
}

func assertConformance(t *testing.T, spec scenario.Spec, rep *scenario.Report, rule, mode string) {
	t.Helper()
	if rep.Rule != rule || rep.Mode != mode {
		t.Fatalf("report rule/mode = %s/%s, want %s/%s", rep.Rule, rep.Mode, rule, mode)
	}
	// Convergence: the final server model must beat the init model on the
	// held-out eval set by at least the margin.
	if rep.Uploads == 0 || rep.Version == 0 {
		t.Fatalf("no aggregation happened: %s", rep.Summary())
	}
	if rep.LossAfter > rep.LossBefore-lossMargin {
		t.Fatalf("no convergence: loss %.4f -> %.4f (margin %.4f): %s",
			rep.LossBefore, rep.LossAfter, lossMargin, rep.Summary())
	}
	// Throughput: at least one full aggregation goal's worth of accepted
	// uploads, at a floor rate.
	if rep.Uploads < int64(spec.Goal) {
		t.Fatalf("only %d accepted uploads, want >= goal %d", rep.Uploads, spec.Goal)
	}
	if rep.UploadsPerSec < throughputFloor {
		t.Fatalf("throughput %.2f uploads/s below floor %.2f", rep.UploadsPerSec, throughputFloor)
	}
	// Report self-consistency: the trace covers the whole attempt budget
	// and per-tier completions account for every accepted upload.
	if want := spec.NumClients() * spec.Attempts; len(rep.Trace) != want {
		t.Fatalf("trace has %d events, want %d", len(rep.Trace), want)
	}
	var completed int
	for _, ts := range rep.Tiers {
		completed += ts.Completed
	}
	if int64(completed) != rep.Uploads {
		t.Fatalf("tier completed sum %d != accepted uploads %d", completed, rep.Uploads)
	}
}
