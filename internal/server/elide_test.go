package server_test

// Ack-elision degradation conformance: the ack-elide stream capability
// must change only the acknowledgement rhythm, never the outcome. Across
// every fabric in the conformance matrix (direct and via-selector), a
// streamed chunked upload must complete identically whether the backend
// negotiated elision (the cells built with AckElide — non-final chunks ride
// unacknowledged) or degraded to per-chunk acks (the in-memory network and
// the HTTP cells built without it). The fabric counters prove which rhythm
// actually ran.

import (
	"crypto/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/transport"
)

// statser is the optional metering surface of a fabric (the networked
// backends implement it; the in-memory Network does not).
type statser interface{ Stats() transport.Stats }

// TestAckElisionDegradation runs a many-chunk streamed upload on every
// conformance fabric and asserts (a) the upload completes and aggregates,
// (b) the session's elision surface matches the backend's configuration,
// and (c) acks were actually elided exactly on the backends configured for
// it — everywhere else the per-chunk ack rhythm ran unchanged.
func TestAckElisionDegradation(t *testing.T) { forEachFabric(t, testAckElisionDegradation) }

func testAckElisionDegradation(t *testing.T, fx fabricFactory) {
	for _, tc := range []struct {
		name      string
		useSecAgg bool
	}{
		{name: "plain"}, {name: "secagg", useSecAgg: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := fx.make(t, 17)
			coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
			defer coord.Stop()
			agg := server.NewAggregator("agg", net, "coordinator", testTimings())
			defer agg.Stop()
			sel := newTestSelector("sel", net, "coordinator", testTimings(), fx)
			defer sel.Stop()
			if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
				t.Fatal(err)
			}

			model := nn.NewBilinear(16, 4) // 144 params
			spec := server.TaskSpec{
				ID:              "elide",
				Mode:            core.Async,
				NumParams:       model.NumParams(),
				Concurrency:     4,
				AggregationGoal: 1,
				Capability:      "lm",
				InitParams:      model.InitParams(rng.New(1)),
				UploadChunkSize: 13, // 144 params -> 12 chunks, 11 elidable
			}
			if tc.useSecAgg {
				dep, err := secagg.NewDeployment(secagg.Params{
					VecLen: model.NumParams() + 1, Threshold: 1, Scale: 1 << 16,
				}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				spec.SecAgg = dep
			}
			if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
				t.Fatal(err)
			}

			// The negotiation surface itself: a session toward the selector
			// offers elision exactly when the backend was configured for it.
			// Per-call degradations and non-eliding backends either do not
			// implement the interface or report ElidesAcks() == false.
			probe, err := transport.OpenSession(net, "probe", "sel")
			if err != nil {
				t.Fatal(err)
			}
			es, ok := probe.(transport.ElidingSession)
			gotElides := ok && es.ElidesAcks()
			_ = probe.Close()
			if gotElides != fx.elides {
				t.Fatalf("session elision = %v, want %v for fabric %s", gotElides, fx.elides, fx.name)
			}

			corpus := lmdata.NewCorpus(lmdata.Config{
				VocabSize: 16, NumDialects: 2, Seed: 3,
				SeqLenMin: 5, SeqLenMax: 8, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
			})
			store := client.NewExampleStore(0, 0)
			for _, seq := range corpus.ClientExamples(1, 0, 0.5, 6) {
				store.Add(seq, time.Now())
			}
			dev := &client.Runtime{
				ClientID:     1,
				Capabilities: []string{"lm"},
				Store:        store,
				Exec:         &client.SGDExecutor{Model: model, Config: nn.DefaultSGDConfig(), Rng: rng.New(2)},
				Net:          net,
				Selectors:    []string{"sel"},
				State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:       rand.Reader,
				Stream:       true,
			}
			res, err := dev.RunOnce(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != client.Completed {
				t.Fatalf("outcome = %s (%s)", res.Outcome, res.Reason)
			}
			info, err := net.Call("test", "agg", "task-info", "elide")
			if err != nil {
				t.Fatal(err)
			}
			if v := info.(server.TaskInfo).Version; v != 1 {
				t.Fatalf("version = %d after one chunked upload", v)
			}

			// The wire-rhythm proof: eliding backends really skipped acks
			// (11 non-final chunks queued no-ack, and the serving half
			// suppressed replies for them); everything else kept the
			// per-chunk request/response lockstep.
			if st, ok := net.(statser); ok {
				elided := st.Stats().AcksElided
				if fx.elides && elided == 0 {
					t.Fatalf("fabric %s negotiated ack elision but elided no acks", fx.name)
				}
				if !fx.elides && elided != 0 {
					t.Fatalf("fabric %s should ack per chunk but elided %d acks", fx.name, elided)
				}
			} else if fx.elides {
				t.Fatalf("fabric %s marked eliding but exposes no Stats()", fx.name)
			}
		})
	}
}
