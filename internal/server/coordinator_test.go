package server_test

// The coordinator's client assignment (Section 6.2) under its seed: the
// task drawn for a check-in must be a function of the seed and the
// check-in sequence alone, and every draw must respect capability gating
// and outstanding demand.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
)

// drawTimings keeps the failure loop out of the way: the stub aggregator
// never heartbeats, so a short deadline would move its tasks mid-test.
func drawTimings() server.Timings {
	return server.Timings{Heartbeat: time.Hour, FailureDeadline: time.Hour, MapRefresh: time.Hour}
}

// newDrawCoordinator starts a coordinator on its own in-memory network
// with one stub aggregator that accepts every placement, then creates
// specs in the given order.
func newDrawCoordinator(t *testing.T, seed int64, specs []server.TaskSpec) *transport.Network {
	t.Helper()
	net := transport.NewNetwork(1)
	net.Register("agg", func(string, any) (any, error) { return true, nil })
	coord := server.NewCoordinator("coordinator", net, drawTimings(), seed, false)
	t.Cleanup(coord.Stop)
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func assign(t *testing.T, net *transport.Network, req server.AssignClientRequest) server.AssignClientResponse {
	t.Helper()
	resp, err := net.Call("test", "coordinator", "assign-client", req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.(server.AssignClientResponse)
}

// randomCaps draws a device's capability set from caps.
func randomCaps(rnd *rand.Rand, caps []string) []string {
	var out []string
	for _, c := range caps {
		if rnd.Intn(3) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// TestAssignClientReproducibleUnderSeed: two coordinators with one seed
// and the same 16 capability-gated tasks, created in different orders,
// hand the same 1000 check-ins the same tasks.
func TestAssignClientReproducibleUnderSeed(t *testing.T) {
	caps := []string{"c0", "c1", "c2", "c3"}
	specs := make([]server.TaskSpec, 16)
	for i := range specs {
		specs[i] = server.TaskSpec{
			ID: fmt.Sprintf("task-%02d", i), Capability: caps[i%len(caps)],
			Concurrency: 40 + i, NumParams: 4,
		}
	}
	shuffled := slices.Clone(specs)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a := newDrawCoordinator(t, 11, specs)
	b := newDrawCoordinator(t, 11, shuffled)

	devices := rand.New(rand.NewSource(3))
	assigned := 0
	for i := 0; i < 1000; i++ {
		req := server.AssignClientRequest{ClientID: int64(i), Capabilities: randomCaps(devices, caps)}
		ra, rb := assign(t, a, req), assign(t, b, req)
		if ra != rb {
			t.Fatalf("check-in %d (caps %v): coordinator A drew %+v, B drew %+v", i, req.Capabilities, ra, rb)
		}
		if ra.Assigned {
			assigned++
		}
	}
	if assigned < 100 {
		t.Fatalf("only %d of 1000 check-ins assigned; the comparison is vacuous", assigned)
	}
}

// TestAssignClientDrawsOnlyEligibleTasks: over seeded draws, no device
// gets a task whose capability it lacks or whose demand minus pending is
// not positive, a device with an eligible task is always assigned, and
// every task that was ever eligible is drawn at least once.
func TestAssignClientDrawsOnlyEligibleTasks(t *testing.T) {
	caps := []string{"c0", "c1", "c2", "c3", "c4"}
	specs := make([]server.TaskSpec, 16)
	for i := range specs {
		specs[i] = server.TaskSpec{
			ID: fmt.Sprintf("task-%02d", i), Capability: caps[i%len(caps)],
			Concurrency: 1 + 7*(i%4), NumParams: 4,
		}
	}
	specs[15].Capability = "" // one ungated task
	for seed := int64(1); seed <= 8; seed++ {
		net := newDrawCoordinator(t, seed, specs)
		// The stub aggregator never reports, so pending only grows and the
		// remaining demand is Concurrency minus the draws so far.
		left := make(map[string]int, len(specs))
		for _, s := range specs {
			left[s.ID] = s.Concurrency
		}
		eligible := func(s server.TaskSpec, have []string) bool {
			return (s.Capability == "" || slices.Contains(have, s.Capability)) && left[s.ID] > 0
		}
		everEligible := map[string]bool{}
		drawn := map[string]int{}
		devices := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			have := randomCaps(devices, caps)
			some := false
			for _, s := range specs {
				if eligible(s, have) {
					everEligible[s.ID] = true
					some = true
				}
			}
			resp := assign(t, net, server.AssignClientRequest{ClientID: int64(i), Capabilities: have})
			if resp.Assigned != some {
				t.Fatalf("seed %d check-in %d (caps %v): assigned=%v, model says an eligible task exists=%v", seed, i, have, resp.Assigned, some)
			}
			if !resp.Assigned {
				continue
			}
			k := slices.IndexFunc(specs, func(s server.TaskSpec) bool { return s.ID == resp.TaskID })
			if k < 0 || !eligible(specs[k], have) {
				t.Fatalf("seed %d check-in %d (caps %v): drew ineligible task %q (left %d)", seed, i, have, resp.TaskID, left[resp.TaskID])
			}
			if resp.Aggregator != "agg" || resp.Seq != 1 {
				t.Fatalf("seed %d: assignment %+v does not name the placed aggregator", seed, resp)
			}
			left[resp.TaskID]--
			drawn[resp.TaskID]++
		}
		for id := range everEligible {
			if drawn[id] == 0 {
				t.Errorf("seed %d: task %s was eligible but never drawn", seed, id)
			}
		}
	}
}
