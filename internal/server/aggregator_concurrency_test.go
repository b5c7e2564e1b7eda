package server_test

// Concurrency drill for the sharded accumulate path: many clients drive
// full multi-chunk uploads against one task simultaneously, over the
// in-memory fabric (whose handlers run on the callers' goroutines, so the
// aggregator sees true concurrency). Under -race this verifies the lock
// split (task mutex for counters, session mutex for assembly, buffer shard
// locks for the accumulate) and the vecpool lease discipline; under plain
// `go test` it still pins the counting invariants — every accepted upload
// counted exactly once, one server step per K updates, no session leaked.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/task"
	"repro/internal/transport"
)

func TestConcurrentChunkUploads(t *testing.T) {
	const (
		numParams = 96
		chunkSize = 16
		goal      = 4
		clients   = 24
		rounds    = 6 // uploads per client
	)
	net := transport.NewNetwork(1)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 3, false)
	defer coord.Stop()
	agg := server.NewAggregator("agg", net, "coordinator", testTimings())
	defer agg.Stop()
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	spec := server.TaskSpec{
		ID:              "conc",
		Mode:            task.Async,
		NumParams:       numParams,
		Concurrency:     clients * 2,
		AggregationGoal: goal,
		Capability:      "lm",
		InitParams:      make([]float32, numParams),
		UploadChunkSize: chunkSize,
		AggShards:       4,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for cID := 0; cID < clients; cID++ {
		wg.Add(1)
		go func(clientID int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				jr, err := net.Call("test", "agg", "join", server.JoinRequest{TaskID: "conc", ClientID: clientID})
				if err != nil {
					t.Errorf("join: %v", err)
					return
				}
				join := jr.(server.JoinResponse)
				if !join.Accepted {
					rejected.Add(1)
					continue
				}
				delta := make([]float32, numParams)
				for i := range delta {
					delta[i] = float32(clientID) * 0.001
				}
				ok := true
				for off := 0; off < numParams; off += chunkSize {
					end := off + chunkSize
					if end > numParams {
						end = numParams
					}
					ur, err := net.Call("test", "agg", "upload-chunk", server.UploadChunk{
						TaskID:    "conc",
						SessionID: join.SessionID,
						Offset:    off,
						Data:      delta[off:end],
						Done:      end == numParams,
						// Varying weights exercise the weighted accumulate.
						NumExamples: int(clientID%5) + 1,
					})
					if err != nil {
						t.Errorf("upload-chunk: %v", err)
						return
					}
					resp := ur.(server.UploadResponse)
					if !resp.OK {
						// Staleness/round aborts are legal outcomes under
						// concurrency; bookkeeping below accounts for them.
						ok = false
						break
					}
				}
				if ok {
					accepted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(int64(100 + cID))
	}
	wg.Wait()

	info, err := net.Call("test", "agg", "task-info", "conc")
	if err != nil {
		t.Fatal(err)
	}
	ti := info.(server.TaskInfo)
	if ti.Updates != accepted.Load() {
		t.Fatalf("aggregator counted %d updates, clients saw %d accepted uploads", ti.Updates, accepted.Load())
	}
	// One server step per K accepted updates, with any remainder still
	// buffered. Under concurrency a release can fold a few more than K
	// (late adds land before the releasing finisher locks the counters),
	// so the version count is bounded, not exact.
	maxSteps := int(accepted.Load()) / goal
	if ti.Version > maxSteps || (maxSteps > 0 && ti.Version == 0) {
		t.Fatalf("server stepped %d times for %d accepted uploads (goal %d)", ti.Version, accepted.Load(), goal)
	}
	if ti.Active != 0 {
		t.Fatalf("%d sessions leaked after all uploads completed", ti.Active)
	}
	if accepted.Load() == 0 {
		t.Fatal("no uploads accepted; drill did not exercise the path")
	}
}
