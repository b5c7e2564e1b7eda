package server_test

import (
	"crypto/rand"
	"math"
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
	"repro/internal/vecf"
)

func testTimings() server.Timings {
	return server.Timings{
		Heartbeat:        10 * time.Millisecond,
		FailureDeadline:  60 * time.Millisecond,
		MapRefresh:       15 * time.Millisecond,
		RecoveryPeriod:   50 * time.Millisecond,
		SelectorJoinWait: 5 * time.Millisecond,
		// Long enough that no conformance test's deliberately idle session
		// is reaped mid-assertion; the reaper tests use their own TTL.
		SessionTTL: 30 * time.Second,
	}
}

// world is a full control plane plus a device fleet, on any fabric backend.
type world struct {
	t     *testing.T
	net   testFabric
	coord *server.Coordinator
	aggs  []*server.Aggregator
	sels  []*server.Selector
	model nn.Model
}

func newWorld(t *testing.T, fx fabricFactory, nAggs, nSels int) *world {
	t.Helper()
	w := &world{t: t, net: fx.make(t, 1), model: nn.NewBilinear(16, 4)}
	w.coord = NewTestCoordinator(w.net)
	for i := 0; i < nAggs; i++ {
		name := agName(i)
		a := server.NewAggregator(name, w.net, "coordinator", testTimings())
		w.aggs = append(w.aggs, a)
		if _, err := w.net.Call("test", "coordinator", "register-aggregator", name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nSels; i++ {
		w.sels = append(w.sels, newTestSelector(selName(i), w.net, "coordinator", testTimings(), fx))
	}
	t.Cleanup(func() {
		for _, a := range w.aggs {
			a.Stop()
		}
		for _, s := range w.sels {
			s.Stop()
		}
		w.coord.Stop()
	})
	return w
}

func NewTestCoordinator(net transport.Fabric) *server.Coordinator {
	return server.NewCoordinator("coordinator", net, testTimings(), 7, false)
}

func agName(i int) string  { return "aggregator-" + string(rune('a'+i)) }
func selName(i int) string { return "selector-" + string(rune('a'+i)) }

func (w *world) createTask(spec server.TaskSpec) {
	w.t.Helper()
	if _, err := w.net.Call("test", "coordinator", "create-task", spec); err != nil {
		w.t.Fatal(err)
	}
}

func (w *world) taskInfo(taskID string) server.TaskInfo {
	w.t.Helper()
	for _, a := range w.aggs {
		_ = a
	}
	// Route through a selector so the lookup tracks reassignments.
	resp, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
		TaskID: taskID, Method: "task-info", Payload: taskID,
	})
	if err != nil {
		w.t.Fatalf("task-info: %v", err)
	}
	return resp.(server.TaskInfo)
}

// device builds a client runtime with a dialect corpus shard.
func (w *world) device(id int64, corpus *lmdata.Corpus, n int) *client.Runtime {
	store := client.NewExampleStore(0, 0)
	for _, seq := range corpus.ClientExamples(id, int(id)%corpus.Config().NumDialects, 0.5, n) {
		store.Add(seq, time.Now())
	}
	return &client.Runtime{
		ClientID:     id,
		Capabilities: []string{"lm"},
		Store:        store,
		Exec: &client.SGDExecutor{
			Model:  w.model,
			Config: nn.DefaultSGDConfig(),
			Rng:    rng.New(uint64(id) + 99),
		},
		Net:       w.net,
		Selectors: []string{selName(0), selName(1 % len(w.sels))},
		State:     client.DeviceState{Idle: true, Charging: true, Unmetered: true},
		Random:    rand.Reader,
	}
}

func lmSpec(id string, model nn.Model, mode core.Algorithm, concurrency, goal int) server.TaskSpec {
	return server.TaskSpec{
		ID:              id,
		Mode:            mode,
		NumParams:       model.NumParams(),
		Concurrency:     concurrency,
		AggregationGoal: goal,
		Capability:      "lm",
		InitParams:      model.InitParams(rng.New(5)),
	}
}

// driveTraining runs devices until the task reaches the target version or
// the deadline passes.
func (w *world) driveTraining(taskID string, corpus *lmdata.Corpus, devices, targetVersion int, deadline time.Duration) server.TaskInfo {
	w.t.Helper()
	stopAt := time.Now().Add(deadline)
	id := int64(0)
	for time.Now().Before(stopAt) {
		for d := 0; d < devices; d++ {
			id++
			dev := w.device(id, corpus, 6)
			_, err := dev.RunOnce(time.Now())
			if err != nil && err != client.ErrNoSelector {
				w.t.Fatalf("device %d: %v", id, err)
			}
		}
		info := w.taskInfo(taskID)
		if info.Version >= targetVersion {
			return info
		}
	}
	w.t.Fatalf("task %s did not reach version %d before deadline", taskID, targetVersion)
	return server.TaskInfo{}
}

func TestEndToEndAsyncTraining(t *testing.T) { forEachFabric(t, testEndToEndAsyncTraining) }

func testEndToEndAsyncTraining(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 2, 2)
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 4, Seed: 3,
		SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	spec := lmSpec("lm-task", w.model, core.Async, 8, 4)
	w.createTask(spec)

	eval := corpus.EvalSet(0, 0.5, 60, "sys-test")
	initLoss := w.model.Loss(spec.InitParams, eval)
	info := w.driveTraining("lm-task", corpus, 8, 10, 20*time.Second)

	if info.Updates < int64(10*4) {
		t.Fatalf("updates = %d, want >= 40", info.Updates)
	}
	finalLoss := w.model.Loss(info.Params, eval)
	if finalLoss >= initLoss-0.05 {
		t.Fatalf("system training did not learn: init=%.3f final=%.3f", initLoss, finalLoss)
	}
}

func TestMaxConcurrencyEnforced(t *testing.T) { forEachFabric(t, testMaxConcurrencyEnforced) }

func testMaxConcurrencyEnforced(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("tight", w.model, core.Async, 2, 100)
	w.createTask(spec)

	accepted := 0
	for i := 0; i < 5; i++ {
		resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: int64(i), Capabilities: []string{"lm"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.(server.CheckinResponse).Accepted {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d sessions with concurrency 2", accepted)
	}
}

func TestCapabilityGating(t *testing.T) { forEachFabric(t, testCapabilityGating) }

func testCapabilityGating(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("caps", w.model, core.Async, 4, 2)
	spec.Capability = "gpu"
	w.createTask(spec)

	resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(server.CheckinResponse).Accepted {
		t.Fatal("incompatible client accepted")
	}
	resp, _ = w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 2, Capabilities: []string{"gpu"},
	})
	if !resp.(server.CheckinResponse).Accepted {
		t.Fatal("compatible client rejected")
	}
}

func TestAggregatorFailover(t *testing.T) { forEachFabric(t, testAggregatorFailover) }

func testAggregatorFailover(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 2, 1)
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 4, Seed: 3,
		SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	spec := lmSpec("failover", w.model, core.Async, 6, 3)
	w.createTask(spec)

	// Train a little, then kill the owning aggregator.
	before := w.driveTraining("failover", corpus, 6, 3, 20*time.Second)

	// Find the owner and crash it.
	resp, err := w.net.Call("test", "coordinator", "map-request", nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := resp.(server.MapResponse).Assignments["failover"].Aggregator
	w.net.Crash(owner)

	// Wait for the coordinator to detect and reassign, and for the new
	// owner to serve the task: the map names it before its next heartbeat
	// hands it the assignment, and a task-info routed in that window is
	// answered "not assigned here".
	deadline := time.Now().Add(5 * time.Second)
	var newOwner string
	served := false
	for time.Now().Before(deadline) && !served {
		resp, err := w.net.Call("test", "coordinator", "map-request", nil)
		if err == nil {
			asg := resp.(server.MapResponse).Assignments["failover"]
			if asg.Aggregator != owner {
				newOwner = asg.Aggregator
				_, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
					TaskID: "failover", Method: "task-info", Payload: "failover",
				})
				served = err == nil
			}
		}
		if !served {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if newOwner == "" {
		t.Fatal("task never reassigned after aggregator crash")
	}
	if !served {
		t.Fatalf("new owner %s never served the task after reassignment", newOwner)
	}

	// The checkpoint must have survived: version resumes at or beyond the
	// last reported version, and training continues.
	after := w.driveTraining("failover", corpus, 6, before.Version+2, 20*time.Second)
	if after.Version < before.Version {
		t.Fatalf("failover lost progress: version %d -> %d", before.Version, after.Version)
	}
}

func TestCoordinatorRecovery(t *testing.T) { forEachFabric(t, testCoordinatorRecovery) }

func testCoordinatorRecovery(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("recovery", w.model, core.Async, 4, 2)
	w.createTask(spec)

	// Kill the coordinator and bring up a fresh one in recovery mode.
	w.coord.Stop()
	newCoord := server.NewCoordinator("coordinator", w.net, testTimings(), 8, true)
	defer newCoord.Stop()

	// During recovery no clients are assigned; afterwards the state is
	// rebuilt from aggregator reports and check-ins succeed again.
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: 7, Capabilities: []string{"lm"},
		})
		if err == nil && resp.(server.CheckinResponse).Accepted {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("coordinator never recovered task state from aggregator reports")
	}
}

func TestSyncModeRoundClosesAndAborts(t *testing.T) {
	forEachFabric(t, testSyncModeRoundClosesAndAborts)
}

func testSyncModeRoundClosesAndAborts(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("sync-task", w.model, core.Sync, 3, 2)
	w.createTask(spec)

	// Open three sessions.
	var sessions []server.CheckinResponse
	for i := 0; i < 3; i++ {
		resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: int64(i), Capabilities: []string{"lm"},
		})
		if err != nil {
			t.Fatal(err)
		}
		cr := resp.(server.CheckinResponse)
		if !cr.Accepted {
			t.Fatalf("session %d rejected", i)
		}
		sessions = append(sessions, cr)
	}

	// Two of them upload; the round closes at goal 2.
	upload := func(cr server.CheckinResponse) server.UploadResponse {
		t.Helper()
		delta := make([]float32, w.model.NumParams())
		delta[0] = 0.01
		resp, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
			TaskID: cr.TaskID, Method: "upload-chunk", Payload: server.UploadChunk{
				TaskID: cr.TaskID, SessionID: cr.SessionID,
				Data: delta, Done: true, NumExamples: 3,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(server.UploadResponse)
	}
	if ur := upload(sessions[0]); !ur.OK {
		t.Fatalf("first upload rejected: %s", ur.Reason)
	}
	if ur := upload(sessions[1]); !ur.OK {
		t.Fatalf("second upload rejected: %s", ur.Reason)
	}

	// Round closed: the third session was aborted (over-selection discard).
	if ur := upload(sessions[2]); ur.OK {
		t.Fatal("straggler upload accepted after round close")
	}
	info := w.taskInfo("sync-task")
	if info.Version != 1 {
		t.Fatalf("version = %d after one round", info.Version)
	}
}

func TestMaxStalenessAbortsUpload(t *testing.T) { forEachFabric(t, testMaxStalenessAbortsUpload) }

func testMaxStalenessAbortsUpload(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("stale-task", w.model, core.Async, 10, 1)
	spec.MaxStaleness = 1
	w.createTask(spec)

	// Open a session that will go stale.
	resp, _ := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	slow := resp.(server.CheckinResponse)
	// The slow session must download first (staleness is measured from the
	// downloaded version).
	_, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
		TaskID: slow.TaskID, Method: "download",
		Payload: server.DownloadRequest{TaskID: slow.TaskID, SessionID: slow.SessionID},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Three fast clients push the version 3 ahead (goal = 1).
	for i := 0; i < 3; i++ {
		r2, _ := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: int64(10 + i), Capabilities: []string{"lm"},
		})
		fast := r2.(server.CheckinResponse)
		delta := make([]float32, w.model.NumParams())
		delta[0] = 0.01
		ur, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
			TaskID: fast.TaskID, Method: "upload-chunk", Payload: server.UploadChunk{
				TaskID: fast.TaskID, SessionID: fast.SessionID,
				Data: delta, Done: true, NumExamples: 1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ur.(server.UploadResponse).OK {
			t.Fatalf("fast upload %d rejected: %s", i, ur.(server.UploadResponse).Reason)
		}
	}

	// The stale session's upload must be rejected.
	delta := make([]float32, w.model.NumParams())
	ur, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
		TaskID: slow.TaskID, Method: "upload-chunk", Payload: server.UploadChunk{
			TaskID: slow.TaskID, SessionID: slow.SessionID,
			Data: delta, Done: true, NumExamples: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.(server.UploadResponse).OK {
		t.Fatal("stale upload accepted beyond MaxStaleness")
	}
}

// fixedExecutor returns a predetermined delta, making aggregation results
// exactly comparable between plaintext and SecAgg paths.
type fixedExecutor struct {
	delta []float32
}

func (f fixedExecutor) Train(params []float32, examples [][]int) ([]float32, float64) {
	return vecf.Clone(f.delta), 1.0
}

func TestSecAggMatchesPlaintextAggregation(t *testing.T) {
	forEachFabric(t, testSecAggMatchesPlaintextAggregation)
}

func testSecAggMatchesPlaintextAggregation(t *testing.T, fx fabricFactory) {
	const dim = 30
	model := nn.NewBilinear(5, 3) // NumParams = 2*5*3+5 = 35
	numParams := model.NumParams()
	_ = dim

	runWorld := func(useSecAgg bool) []float32 {
		net := fx.make(t, 3)
		coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
		defer coord.Stop()
		agg := server.NewAggregator("agg", net, "coordinator", testTimings())
		defer agg.Stop()
		sel := newTestSelector("sel", net, "coordinator", testTimings(), fx)
		defer sel.Stop()
		if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
			t.Fatal(err)
		}

		spec := server.TaskSpec{
			ID:              "eq",
			Mode:            core.Async,
			NumParams:       numParams,
			Concurrency:     10,
			AggregationGoal: 3,
			Capability:      "lm",
			InitParams:      make([]float32, numParams),
		}
		if useSecAgg {
			dep, err := secagg.NewDeployment(secagg.Params{
				VecLen: numParams + 1, Threshold: 3, Scale: 1 << 16,
			}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			spec.SecAgg = dep
		}
		if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 3; i++ {
			delta := make([]float32, numParams)
			for j := range delta {
				delta[j] = float32(i+1) * 0.001 * float32(j%5)
			}
			store := client.NewExampleStore(0, 0)
			store.Add([]int{1, 2, 3}, time.Now())
			store.Add([]int{2, 3, 4}, time.Now())
			dev := &client.Runtime{
				ClientID:     int64(i),
				Capabilities: []string{"lm"},
				Store:        store,
				Exec:         fixedExecutor{delta: delta},
				Net:          net,
				Selectors:    []string{"sel"},
				State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:       rand.Reader,
			}
			res, err := dev.RunOnce(time.Now())
			if err != nil {
				t.Fatalf("device %d: %v", i, err)
			}
			if res.Outcome != client.Completed {
				t.Fatalf("device %d outcome: %s (%s)", i, res.Outcome, res.Reason)
			}
		}

		resp, err := net.Call("test", "agg", "task-info", "eq")
		if err != nil {
			t.Fatal(err)
		}
		info := resp.(server.TaskInfo)
		if info.Version != 1 {
			t.Fatalf("version = %d, want 1", info.Version)
		}
		return info.Params
	}

	plain := runWorld(false)
	secure := runWorld(true)
	for i := range plain {
		if math.Abs(float64(plain[i]-secure[i])) > 1e-3 {
			t.Fatalf("secure aggregation diverged from plaintext at %d: %v vs %v",
				i, secure[i], plain[i])
		}
	}
}

func TestSelectorFailover(t *testing.T) { forEachFabric(t, testSelectorFailover) }

func testSelectorFailover(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 2)
	spec := lmSpec("sel-failover", w.model, core.Async, 4, 1)
	w.createTask(spec)

	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 4, Seed: 3,
		SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	// Crash the first selector: the device must transparently use the
	// second (Appendix E.4 "clients retry through a different selector").
	w.net.Crash(selName(0))
	dev := w.device(1, corpus, 5)
	res, err := dev.RunOnce(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != client.Completed {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Reason)
	}
}

func TestCheckinRejectedWhenNoDemand(t *testing.T) {
	forEachFabric(t, testCheckinRejectedWhenNoDemand)
}

func testCheckinRejectedWhenNoDemand(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	// No tasks at all.
	resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(server.CheckinResponse).Accepted {
		t.Fatal("accepted with no tasks")
	}
}

func TestDuplicateTaskRejected(t *testing.T) { forEachFabric(t, testDuplicateTaskRejected) }

func testDuplicateTaskRejected(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("dup", w.model, core.Async, 2, 1)
	w.createTask(spec)
	if _, err := w.net.Call("test", "coordinator", "create-task", spec); err == nil {
		t.Fatal("duplicate task accepted")
	}
}
