package server_test

// Observability-plane conformance: trace IDs minted client-side must
// propagate client -> selector -> aggregator on every fabric backend in
// both selector modes (the full 16-cell crossing), /v1-shaped peers must
// degrade cleanly to untraced, and the session-TTL reaper must count its
// teardowns distinctly from clean closes.

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// obsCounter reads one fully-labeled counter sample from the process
// registry snapshot (absent samples read as 0).
func obsCounter(sample string) float64 {
	return obs.Default().Snapshot()[sample]
}

// TestTracePropagation asserts the tentpole invariant on every fabric x
// {direct, via-selector}: one completed participation leaves spans from
// all three tiers in the ring, all under the trace ID the client minted
// and the control plane echoed.
func TestTracePropagation(t *testing.T) { forEachFabric(t, testTracePropagation) }

func testTracePropagation(t *testing.T, fx fabricFactory) {
	const numParams = 48
	net := fx.make(t, 23)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
	agg := server.NewAggregator("agg", net, "coordinator", testTimings())
	sel := newTestSelector("sel", net, "coordinator", testTimings(), fx)
	defer func() {
		sel.Stop()
		agg.Stop()
		coord.Stop()
	}()
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	spec := server.TaskSpec{
		ID: "traced", Mode: core.Async, NumParams: numParams, Concurrency: 4,
		AggregationGoal: 1, Capability: "lm",
		InitParams: make([]float32, numParams), UploadChunkSize: 16,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	store := client.NewExampleStore(0, 0)
	store.Add([]int{1, 2, 3}, time.Now())
	dev := &client.Runtime{
		ClientID:     71,
		Capabilities: []string{"lm"},
		Store:        store,
		Exec:         fixedExecutor{delta: make([]float32, numParams)},
		Net:          net,
		Selectors:    []string{"sel"},
		State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
		Random:       rand.Reader,
		Compress:     []string{"none"},
	}
	res, err := dev.RunOnce(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != client.Completed {
		t.Fatalf("participation %s: %s", res.Outcome, res.Reason)
	}
	if res.TraceID == 0 {
		t.Fatal("completed participation has no trace ID")
	}
	if !res.Traced {
		t.Fatal("control plane did not echo the trace ID (degraded to untraced on a /v2 fabric)")
	}

	// All three tiers recorded spans under the one trace ID. The ring is
	// process-global; filtering by trace isolates this run.
	spans := obs.Spans().Snapshot(res.TraceID)
	tiers := map[string]bool{}
	stages := map[string]bool{}
	for _, s := range spans {
		tiers[s.Tier] = true
		stages[s.Tier+"/"+s.Name] = true
	}
	for _, tier := range []string{"client", "selector", "aggregator"} {
		if !tiers[tier] {
			t.Fatalf("no %s-tier span for trace %#x (got %v)", tier, res.TraceID, spans)
		}
	}
	for _, stage := range []string{"client/checkin", "client/train", "selector/checkin",
		"aggregator/join", "aggregator/download", "aggregator/report", "aggregator/chunk"} {
		if !stages[stage] {
			t.Fatalf("missing span %q for trace %#x (have %v)", stage, res.TraceID, stages)
		}
	}
}

// legacyCheckinRequest is the /v1 wire shape: no TraceID field. Decoding
// its gob bytes into the current struct must leave TraceID zero — the
// degradation rule the capability doc promises.
type legacyCheckinRequest struct {
	ClientID     int64
	Capabilities []string
}

// TestV1TraceDegradation pins the two halves of the /v1 rule: (1) a gob
// payload encoded without the TraceID field decodes to trace 0, and (2)
// a trace-0 check-in crosses the full control plane untraced — zero echo
// in the response, session still accepted.
func TestV1TraceDegradation(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacyCheckinRequest{
		ClientID: 9, Capabilities: []string{"lm"},
	}); err != nil {
		t.Fatal(err)
	}
	var req server.CheckinRequest
	if err := gob.NewDecoder(&buf).Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.ClientID != 9 || len(req.Capabilities) != 1 {
		t.Fatalf("legacy fields lost in decode: %+v", req)
	}
	if req.TraceID != 0 {
		t.Fatalf("legacy payload decoded with TraceID %d, want 0", req.TraceID)
	}

	// An untraced check-in through a live control plane: accepted, echo 0.
	w := newWorldOn(t, fabricFactories[0], server.TaskSpec{
		ID: "untraced", Mode: core.Async, NumParams: 16, Concurrency: 2,
		AggregationGoal: 4, Capability: "lm",
		InitParams: make([]float32, 16), UploadChunkSize: 16,
	})
	resp, err := w.net.Call("test", "sel", "checkin", server.CheckinRequest{
		ClientID: 9, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := resp.(server.CheckinResponse)
	if !cr.Accepted {
		t.Fatalf("untraced checkin rejected: %s", cr.Reason)
	}
	if cr.TraceID != 0 {
		t.Fatalf("untraced checkin echoed trace %d, want 0", cr.TraceID)
	}
}

// newWorldOn is the minimal control plane the degradation test needs.
func newWorldOn(t *testing.T, fx fabricFactory, spec server.TaskSpec) *reaperWorld {
	t.Helper()
	net := fx.make(t, 29)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
	agg := server.NewAggregator("agg", net, "coordinator", testTimings())
	sel := newTestSelector("sel", net, "coordinator", testTimings(), fx)
	t.Cleanup(func() {
		sel.Stop()
		agg.Stop()
		coord.Stop()
	})
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}
	return &reaperWorld{t: t, net: net}
}

// TestReapCountedDistinctFromCleanClose is the reaper-observability
// regression fence: a clean session completion moves only
// sessions_closed_total, a TTL reap moves only sessions_reaped_total.
// The aggregator gets a unique node name so the labeled counters are
// attributable even when the whole package's tests share the registry.
func TestReapCountedDistinctFromCleanClose(t *testing.T) {
	const (
		node      = "agg-obsreap"
		numParams = 48
	)
	closedSample := `papaya_sessions_closed_total{node="` + node + `"}`
	reapedSample := `papaya_sessions_reaped_total{node="` + node + `"}`
	openedSample := `papaya_sessions_opened_total{node="` + node + `"}`

	tm := testTimings()
	tm.SessionTTL = 60 * time.Millisecond
	fx := fabricFactories[0] // inmem: counter timing is all that matters here
	net := fx.make(t, 31)
	coord := server.NewCoordinator("coordinator", net, tm, 7, false)
	agg := server.NewAggregator(node, net, "coordinator", tm)
	sel := newTestSelector("sel-obsreap", net, "coordinator", tm, fx)
	defer func() {
		sel.Stop()
		agg.Stop()
		coord.Stop()
	}()
	if _, err := net.Call("test", "coordinator", "register-aggregator", node); err != nil {
		t.Fatal(err)
	}
	spec := server.TaskSpec{
		ID: "reap-count", Mode: core.Async, NumParams: numParams, Concurrency: 2,
		AggregationGoal: 100, Capability: "lm",
		InitParams: make([]float32, numParams), UploadChunkSize: 16,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	closed0, reaped0 := obsCounter(closedSample), obsCounter(reapedSample)

	// A clean participation: closed +1, reaped +0.
	store := client.NewExampleStore(0, 0)
	store.Add([]int{1, 2, 3}, time.Now())
	dev := &client.Runtime{
		ClientID: 5, Capabilities: []string{"lm"}, Store: store,
		Exec: fixedExecutor{delta: make([]float32, numParams)},
		Net:  net, Selectors: []string{"sel-obsreap"},
		State:  client.DeviceState{Idle: true, Charging: true, Unmetered: true},
		Random: rand.Reader, Compress: []string{"none"},
	}
	res, err := dev.RunOnce(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != client.Completed {
		t.Fatalf("participation %s: %s", res.Outcome, res.Reason)
	}
	if d := obsCounter(closedSample) - closed0; d != 1 {
		t.Fatalf("sessions_closed_total moved by %g after a clean close, want 1", d)
	}
	if d := obsCounter(reapedSample) - reaped0; d != 0 {
		t.Fatalf("sessions_reaped_total moved by %g after a clean close, want 0", d)
	}

	// A silent death: reaped +1, closed +0.
	closed1, reaped1 := obsCounter(closedSample), obsCounter(reapedSample)
	resp, err := net.Call("test", "sel-obsreap", "checkin", server.CheckinRequest{
		ClientID: 6, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := resp.(server.CheckinResponse)
	if !cr.Accepted {
		t.Fatalf("checkin rejected: %s", cr.Reason)
	}
	deadline := time.Now().Add(10 * time.Second)
	for obsCounter(reapedSample)-reaped1 < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions_reaped_total never moved after a silent death (session %d)", cr.SessionID)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if d := obsCounter(reapedSample) - reaped1; d != 1 {
		t.Fatalf("sessions_reaped_total moved by %g after one silent death, want 1", d)
	}
	if d := obsCounter(closedSample) - closed1; d != 0 {
		t.Fatalf("sessions_closed_total moved by %g on a reap, want 0 (reaps must not count as clean closes)", d)
	}
	// Book-keeping identity: everything opened was either closed or reaped.
	if opened, ended := obsCounter(openedSample), obsCounter(closedSample)+obsCounter(reapedSample); opened != ended {
		t.Fatalf("opened %g != closed+reaped %g", opened, ended)
	}

	// The reap also logged; the line is the operator-facing half of the
	// satellite. (Log output goes to stderr; asserting the counter and the
	// span suffices here — the span carries the reason text.)
	spans := obs.Spans().Snapshot(0)
	found := false
	for _, s := range spans {
		if s.Name == "reap" && s.Node == node && s.Session == cr.SessionID {
			if !strings.Contains(s.Err, "ttl") {
				t.Fatalf("reap span err %q does not name the TTL", s.Err)
			}
			found = true
		}
	}
	// Reap spans exist only for traced sessions; this check-in was
	// untraced (TraceID 0), so no span is expected — re-run traced.
	if found {
		t.Fatalf("reap span recorded for untraced session %d", cr.SessionID)
	}
	resp, err = net.Call("test", "sel-obsreap", "checkin", server.CheckinRequest{
		ClientID: 7, Capabilities: []string{"lm"}, TraceID: obs.NextTraceID(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	cr = resp.(server.CheckinResponse)
	if !cr.Accepted {
		t.Fatalf("traced checkin rejected: %s", cr.Reason)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		spans := obs.Spans().Snapshot(cr.TraceID)
		reapSeen := false
		for _, s := range spans {
			if s.Name == "reap" && s.Node == node {
				if !strings.Contains(s.Err, "ttl") {
					t.Fatalf("reap span err %q does not name the TTL", s.Err)
				}
				reapSeen = true
			}
		}
		if reapSeen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reap span for traced session %d (trace %#x)", cr.SessionID, cr.TraceID)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
