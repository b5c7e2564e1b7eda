package server_test

// Regression tests for the in-memory fabric's response-lease balance: the
// aggregator serves downloads and task-info from pooled vectors
// (wire.ResponseBufferLease); networked fabrics release the lease after
// encoding the response frame, and transport.Network must do the moral
// equivalent — hand the caller a caller-owned snapshot and release the
// handler's lease (wire.ResponseSnapshot). Before this, every in-memory
// download leaked one pooled vector per call (ROADMAP carried item).

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/task"
	"repro/internal/transport"
	"repro/internal/vecpool"
)

func TestInMemoryDownloadBalancesLeases(t *testing.T) {
	net := transport.NewNetwork(9)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
	defer coord.Stop()
	agg := server.NewAggregator("agg", net, "coordinator", testTimings())
	defer agg.Stop()
	sel := server.NewSelector("sel", net, "coordinator", testTimings())
	defer sel.Stop()
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}

	model := nn.NewBilinear(16, 4) // 144 params: off the pool's size classes
	init := model.InitParams(rng.New(5))
	spec := server.TaskSpec{
		ID: "lease", Mode: task.Async, NumParams: model.NumParams(),
		Concurrency: 4, AggregationGoal: 1, Capability: "lm", InitParams: init,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	resp, err := net.Call("test", "sel", "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := resp.(server.CheckinResponse)
	if !cr.Accepted {
		t.Fatalf("checkin rejected: %s", cr.Reason)
	}

	baseF, baseU := vecpool.OutstandingFloats(), vecpool.OutstandingUints()
	var params []float32
	for i := 0; i < 8; i++ {
		resp, err := net.Call("test", "sel", "route", server.RouteRequest{
			TaskID: "lease", Method: "download",
			Payload: server.DownloadRequest{TaskID: "lease", SessionID: cr.SessionID},
		})
		if err != nil {
			t.Fatal(err)
		}
		params = resp.(server.DownloadResponse).Params
	}
	if f, u := vecpool.OutstandingFloats(), vecpool.OutstandingUints(); f != baseF || u != baseU {
		t.Fatalf("8 in-memory downloads moved the lease counters: floats %d -> %d, uints %d -> %d",
			baseF, f, baseU, u)
	}

	// The snapshot must be caller-owned memory, not an alias of the pooled
	// vector the handler released: mutate it and download again — the model
	// served must be unaffected.
	for i := range params {
		params[i] = -12345
	}
	resp, err = net.Call("test", "agg", "task-info", "lease")
	if err != nil {
		t.Fatal(err)
	}
	got := resp.(server.TaskInfo).Params
	for i := range got {
		if got[i] != init[i] {
			t.Fatalf("served model corrupted at %d: got %v, want %v — snapshot aliases the pooled buffer", i, got[i], init[i])
		}
	}

	// task-info responses balance too (they carry the same leased vector).
	baseF, baseU = vecpool.OutstandingFloats(), vecpool.OutstandingUints()
	for i := 0; i < 8; i++ {
		if _, err := net.Call("test", "agg", "task-info", "lease"); err != nil {
			t.Fatal(err)
		}
	}
	if f, u := vecpool.OutstandingFloats(), vecpool.OutstandingUints(); f != baseF || u != baseU {
		t.Fatalf("8 in-memory task-info calls moved the lease counters: floats %d -> %d, uints %d -> %d",
			baseF, f, baseU, u)
	}
}
