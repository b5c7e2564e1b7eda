package server_test

import (
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/task"
)

// Section 6.2: "Achieving high utilization is especially challenging in a
// multi-tenant FL system, where multiple FL tasks are running in parallel,
// and a single client may be compatible with many tasks." These tests
// exercise demand-driven assignment across tenants.

func TestMultiTenantAssignmentSpreadsClients(t *testing.T) {
	forEachFabric(t, testMultiTenantAssignmentSpreadsClients)
}

func testMultiTenantAssignmentSpreadsClients(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 2, 1)
	specA := lmSpec("tenant-a", w.model, task.Async, 3, 2)
	specB := lmSpec("tenant-b", w.model, task.Async, 3, 2)
	w.createTask(specA)
	w.createTask(specB)

	// Tasks land on different aggregators (least-loaded placement).
	resp, err := w.net.Call("test", "coordinator", "map-request", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := resp.(server.MapResponse).Assignments
	if m["tenant-a"].Aggregator == m["tenant-b"].Aggregator {
		t.Fatalf("both tasks placed on %s; expected spreading", m["tenant-a"].Aggregator)
	}

	// Clients compatible with both tasks fill both tasks' demand.
	counts := map[string]int{}
	deadline := time.Now().Add(3 * time.Second)
	for id := int64(0); time.Now().Before(deadline); id++ {
		resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: id, Capabilities: []string{"lm"},
		})
		if err != nil {
			t.Fatal(err)
		}
		cr := resp.(server.CheckinResponse)
		if cr.Accepted {
			counts[cr.TaskID]++
		}
		if counts["tenant-a"] >= 3 && counts["tenant-b"] >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if counts["tenant-a"] < 3 || counts["tenant-b"] < 3 {
		t.Fatalf("demand not filled across tenants: %v", counts)
	}
	// With both at max concurrency, further check-ins are rejected.
	resp, _ = w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 9999, Capabilities: []string{"lm"},
	})
	if resp.(server.CheckinResponse).Accepted {
		t.Fatal("check-in accepted with all tenants at capacity")
	}
}

func TestMultiTenantCapabilityIsolation(t *testing.T) {
	forEachFabric(t, testMultiTenantCapabilityIsolation)
}

func testMultiTenantCapabilityIsolation(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	specLM := lmSpec("lm-tenant", w.model, task.Async, 2, 1)
	specGPU := lmSpec("gpu-tenant", w.model, task.Async, 2, 1)
	specGPU.Capability = "gpu"
	w.createTask(specLM)
	w.createTask(specGPU)

	// An lm-only client can only ever land on the lm tenant.
	for i := 0; i < 6; i++ {
		resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: int64(i), Capabilities: []string{"lm"},
		})
		if err != nil {
			t.Fatal(err)
		}
		cr := resp.(server.CheckinResponse)
		if cr.Accepted && cr.TaskID != "lm-tenant" {
			t.Fatalf("lm client assigned to %s", cr.TaskID)
		}
	}
	// A dual-capability client may land on either; verify it CAN reach the
	// gpu tenant (demand exists only there once lm is full).
	gotGPU := false
	deadline := time.Now().Add(3 * time.Second)
	for id := int64(100); time.Now().Before(deadline) && !gotGPU; id++ {
		resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
			ClientID: id, Capabilities: []string{"lm", "gpu"},
		})
		if err != nil {
			t.Fatal(err)
		}
		cr := resp.(server.CheckinResponse)
		if cr.Accepted && cr.TaskID == "gpu-tenant" {
			gotGPU = true
		}
		time.Sleep(time.Millisecond)
	}
	if !gotGPU {
		t.Fatal("dual-capability client never reached the gpu tenant")
	}
}
