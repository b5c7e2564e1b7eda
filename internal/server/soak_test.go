package server_test

// Stream soak: >= 200 concurrent sessions per backend with faults injected
// mid-stream — some clients crash between chunks, some abandon silently —
// asserting (1) every surviving session completes, (2) the final aggregate
// is byte-identical to the same workload on the in-memory fabric, (3) no
// goroutine leaks once everything is closed, and (4) the vecpool
// outstanding-lease count returns exactly to its baseline (a stuck
// positive delta is a leak, a negative one a double release). The lease
// balance is read through a live obs endpoint scrape — /metrics over
// HTTP, parsed back — so the soak also proves the observability plane's
// own export path under concurrent load. The
// workload is built from exact dyadic deltas with unit weights so
// floating-point summation is order-independent and cross-fabric bit
// equality is a meaningful invariant, not luck.
//
// The same file carries the bench-compare gate (PAPAYA_BENCH_COMPARE):
// streaming must beat the per-chunk POST path in uploads/sec at 16k
// params, on both streaming backends.

import (
	"crypto/rand"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

const (
	soakSessions    = 208 // completed sessions per backend (the >= 200 floor)
	soakCrashed     = 16  // clients crashed between chunks
	soakAbandoned   = 16  // clients that die silently mid-upload
	soakWorkers     = 16  // concurrent session drivers
	soakParams      = 96  // model size; chunk 24 -> 4 chunks per upload
	soakChunk       = 24
	soakFailEvery   = 7 // a failing client every N-th session slot
	soakSessionTTL  = 2 * time.Second
	soakQuiesceWait = 30 * time.Second
)

// soakDelta is the exact-dyadic update every surviving client uploads:
// multiples of 1/8 so partial sums of hundreds of updates stay exact in
// float32 and the aggregation order cannot change the result.
func soakDelta() []float32 {
	d := make([]float32, soakParams)
	for j := range d {
		d[j] = float32(j%8) * 0.125
	}
	return d
}

func soakTimings() server.Timings {
	tm := testTimings()
	tm.SessionTTL = soakSessionTTL
	return tm
}

// runSoak drives the deterministic soak workload on one fabric and
// returns the final model. Every backend balances the vecpool counters —
// networked fabrics release response leases after frame encode, the
// in-memory fabric through wire.ResponseSnapshot — so checkLeases is on
// everywhere; it remains a parameter only for targeted debugging runs.
func runSoak(t *testing.T, fx fabricFactory, stream, checkLeases bool) []float32 {
	t.Helper()
	net := fx.make(t, 17)
	coord := server.NewCoordinator("coordinator", net, soakTimings(), 7, false)
	agg := server.NewAggregator("agg", net, "coordinator", soakTimings())
	sel := newTestSelector("sel", net, "coordinator", soakTimings(), fx)
	defer func() {
		sel.Stop()
		agg.Stop()
		coord.Stop()
	}()
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	spec := server.TaskSpec{
		ID:              "soak",
		Mode:            core.Async,
		NumParams:       soakParams,
		Concurrency:     soakSessions + soakCrashed + soakAbandoned + soakWorkers,
		AggregationGoal: soakSessions, // exactly one server step, at the end
		Capability:      "lm",
		InitParams:      make([]float32, soakParams),
		UploadChunkSize: soakChunk,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	// The lease baseline and final balance come from a real scrape of the
	// obs endpoint (satellite of the observability plane): the gauges are
	// lazily-read views over the same vecpool counters the old direct
	// calls used, so the assertion is as exact — and now also covers
	// Serve/WriteProm/ParseText under soak concurrency.
	obsURL, obsShutdown, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = obsShutdown() }()
	baseF, baseU := scrapeVecpoolGauges(t, obsURL)
	delta := soakDelta()

	// failSession drives a doomed client by hand: join, upload part of the
	// update (leasing the reassembly vector), then crash or go dark.
	failSession := func(idx int) {
		name := fmt.Sprintf("doomed-%d", idx)
		resp, err := net.Call(name, "sel", "checkin", server.CheckinRequest{
			ClientID: int64(10000 + idx), Capabilities: []string{"lm"},
		})
		if err != nil {
			return // a crashed sibling's marker can't reach here; names are unique
		}
		cr := resp.(server.CheckinResponse)
		if !cr.Accepted {
			t.Errorf("doomed client %d rejected: %s", idx, cr.Reason)
			return
		}
		// Two of four chunks, then the failure.
		for off := 0; off < 2*soakChunk; off += soakChunk {
			_, _ = net.Call(name, "sel", "route", server.RouteRequest{
				TaskID: cr.TaskID, Method: "upload-chunk", Payload: server.UploadChunk{
					TaskID: cr.TaskID, SessionID: cr.SessionID,
					Offset: off, Data: delta[off : off+soakChunk], NumExamples: 1,
				},
			})
		}
		if idx%2 == 0 {
			// Injected crash: the node dies mid-stream; its next send fails
			// with ErrCrashed and nothing more arrives.
			net.Crash(name)
			_, _ = net.Call(name, "sel", "route", server.RouteRequest{
				TaskID: cr.TaskID, Method: "upload-chunk", Payload: server.UploadChunk{
					TaskID: cr.TaskID, SessionID: cr.SessionID,
					Offset: 2 * soakChunk, Data: delta[2*soakChunk : 3*soakChunk], NumExamples: 1,
				},
			})
		}
		// Odd indices abandon silently: no further traffic at all.
	}

	// Each permit is exactly one completed session, so the total is exact
	// (soakSessions) no matter how workers interleave; failures are
	// injected between permits so they land mid-fleet, not up front.
	var permits, failIdx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < soakWorkers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			store := client.NewExampleStore(0, 0)
			store.Add([]int{1, 2, 3}, time.Now())
			for {
				n := permits.Add(1)
				if n > soakSessions {
					return
				}
				if n%soakFailEvery == 0 {
					if f := failIdx.Add(1); f <= soakCrashed+soakAbandoned {
						failSession(int(f))
					}
				}
				dev := &client.Runtime{
					ClientID:     n,
					Capabilities: []string{"lm"},
					Store:        store,
					Exec:         fixedExecutor{delta: delta},
					Net:          net,
					Selectors:    []string{"sel"},
					State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
					Random:       rand.Reader,
					Compress:     []string{"none"},
					Stream:       stream,
				}
				for {
					res, err := dev.RunOnce(time.Now())
					if err != nil {
						t.Errorf("worker %d session %d: %v", worker, n, err)
						return
					}
					if res.Outcome == client.Completed {
						break
					}
					if res.Outcome != client.Rejected {
						t.Errorf("worker %d session %d: %s (%s)", worker, n, res.Outcome, res.Reason)
						return
					}
					// Transient (max concurrency while dead sessions await
					// the reaper); retry after a beat instead of spinning.
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiescence: every abandoned session reaped (their leases released),
	// exactly one server step from the goal-sized buffer.
	var info server.TaskInfo
	deadline := time.Now().Add(soakQuiesceWait)
	for {
		resp, err := net.Call("test", "agg", "task-info", "soak")
		if err != nil {
			t.Fatal(err)
		}
		info = resp.(server.TaskInfo)
		if info.Active == 0 && info.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence: %d active sessions, version %d", info.Active, info.Version)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if info.Updates != soakSessions {
		t.Fatalf("aggregated %d updates, want %d", info.Updates, soakSessions)
	}

	if checkLeases {
		f, u := scrapeVecpoolGauges(t, obsURL)
		if f != baseF || u != baseU {
			t.Fatalf("vecpool leases after soak (scraped): floats %g (want %g — leak if higher, double release if lower), uints %g (want %g)",
				f, baseF, u, baseU)
		}
	}
	return info.Params
}

// scrapeVecpoolGauges reads the vecpool balance gauges through a live
// /metrics scrape, also asserting the foreign-put counter stayed zero.
func scrapeVecpoolGauges(t *testing.T, baseURL string) (floats, uints float64) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scraping obs endpoint: %v", err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	for _, name := range []string{
		"papaya_vecpool_outstanding_floats",
		"papaya_vecpool_outstanding_uints",
		"papaya_vecpool_foreign_puts",
	} {
		if _, ok := m[name]; !ok {
			t.Fatalf("scrape is missing %s", name)
		}
	}
	if fp := m["papaya_vecpool_foreign_puts"]; fp != 0 {
		t.Fatalf("papaya_vecpool_foreign_puts = %g, want 0", fp)
	}
	return m["papaya_vecpool_outstanding_floats"], m["papaya_vecpool_outstanding_uints"]
}

// TestStreamSoak runs the soak on every streaming backend and checks each
// aggregate bit-for-bit against the in-memory reference.
func TestStreamSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	goroutineBase := runtime.NumGoroutine()

	inmemFx := fabricFactory{name: "inmem", make: func(t *testing.T, seed int64) testFabric {
		return transport.NewNetwork(seed)
	}}
	want := runSoak(t, inmemFx, true, true)

	// Two of the three networked cells run the selector in routing mode, so
	// the pooled-session tier soaks under the full 208-session concurrent
	// load (and under -race in CI) on both backends, while the direct tcp
	// cell keeps the direct-mode reference coverage.
	newHTTP := func(t *testing.T, seed int64) testFabric {
		f, err := httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
	newTCP := func(t *testing.T, seed int64) testFabric {
		f, err := tcptransport.New(tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
	backends := []fabricFactory{
		{name: "http-stream", routing: true, make: newHTTP},
		{name: "tcp", make: newTCP},
		// The historical name of the routing-mode tcp cell; it runs the
		// option set the benchmark harness passes (deprecated Codec "bin").
		{name: "tcp-bin-deflate", routing: true, make: func(t *testing.T, seed int64) testFabric {
			f, err := tcptransport.New(tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Codec: "bin"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			return f
		}},
	}
	for _, fx := range backends {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			got := runSoak(t, fx, true, true)
			if len(got) != len(want) {
				t.Fatalf("aggregate length %d, want %d", len(got), len(want))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("aggregate diverges from in-memory fabric at %d: %x vs %x",
						i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		})
	}

	// Everything is stopped and closed; the fleet's goroutines must drain.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutineBase+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<18)
	t.Fatalf("goroutine leak: %d at start, %d after soak\n%s",
		goroutineBase, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestElidedBeatsPerChunkAck is the v2 bench-compare gate (set
// PAPAYA_BENCH_COMPARE=1): at 16k params on the TCP fabric, the
// ack-eliding upload rhythm — non-final chunks unacknowledged, frames
// coalesced into one writev batch — must move at least as many
// uploads/sec as the same fabric running per-chunk acks. This fences the
// reason the /v2 capability exists; both cells are measured in the same
// process on the same host so the comparison is apples to apples.
func TestElidedBeatsPerChunkAck(t *testing.T) {
	if os.Getenv("PAPAYA_BENCH_COMPARE") == "" {
		t.Skip("set PAPAYA_BENCH_COMPARE=1 to run the elided-vs-acked comparison")
	}
	const (
		benchParams  = 16384
		benchUploads = 48
		benchClients = 8
	)
	measure := func(name string, elide bool) float64 {
		t.Helper()
		f, err := tcptransport.New(tcptransport.Options{
			Listen: "127.0.0.1:0", AckElide: elide,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		net := testFabric(f)
		coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
		agg := server.NewAggregator("agg", net, "coordinator", testTimings())
		sel := server.NewSelector("sel", net, "coordinator", testTimings())
		defer func() {
			sel.Stop()
			agg.Stop()
			coord.Stop()
		}()
		if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
			t.Fatal(err)
		}
		spec := server.TaskSpec{
			ID: "bench", Mode: core.Async, NumParams: benchParams,
			Concurrency: benchClients * 2, AggregationGoal: 8, Capability: "lm",
			InitParams: make([]float32, benchParams), UploadChunkSize: 4096,
		}
		if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
			t.Fatal(err)
		}
		delta := make([]float32, benchParams)
		for i := range delta {
			delta[i] = 0.001
		}
		var completed atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < benchClients; c++ {
			wg.Add(1)
			go func(id int64) {
				defer wg.Done()
				store := client.NewExampleStore(0, 0)
				store.Add([]int{1, 2, 3}, time.Now())
				dev := &client.Runtime{
					ClientID: id, Capabilities: []string{"lm"},
					Store: store, Exec: fixedExecutor{delta: delta},
					Net: net, Selectors: []string{"sel"},
					State:    client.DeviceState{Idle: true, Charging: true, Unmetered: true},
					Random:   rand.Reader,
					Compress: []string{"none"},
					Stream:   true,
				}
				for completed.Load() < benchUploads {
					res, err := dev.RunOnce(time.Now())
					if err == nil && res.Outcome == client.Completed {
						completed.Add(1)
					}
				}
			}(int64(100 + c))
		}
		wg.Wait()
		rate := float64(completed.Load()) / time.Since(start).Seconds()
		elided := f.Stats().AcksElided
		t.Logf("%s: %.1f uploads/sec at %d params (%d acks elided)", name, rate, benchParams, elided)
		if elide && elided == 0 {
			t.Fatalf("%s: ack elision was enabled but no acks were elided", name)
		}
		if !elide && elided != 0 {
			t.Fatalf("%s: per-chunk-ack run elided %d acks", name, elided)
		}
		return rate
	}

	acked := measure("tcp per-chunk ack", false)
	elided := measure("tcp elided", true)
	if elided < acked {
		t.Fatalf("elided tcp uploads (%.1f/s) fell below per-chunk-ack tcp (%.1f/s) at %d params",
			elided, acked, benchParams)
	}
}
