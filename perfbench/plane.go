package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

// The control plane is assembled the way `papaya serve` assembles it:
// serve's timings and task defaults, with the bin codec, streamed sessions
// and ack elision switched on.
const (
	heartbeat   = 250 * time.Millisecond
	concurrency = 64
	chunkSize   = 4096
	numAggs     = 2
	numSels     = 2
)

// workload is one traffic mix the benchmark drives. README.md records why
// each one exists.
type workload struct {
	name      string
	fabric    string // "tcp", or "http" with full-duplex streamed sessions
	numParams int
	compress  string // the task's preferred upload codec; "" = raw
	tasks     int
	// capability gives every task its own required capability and makes
	// every attempt a fresh device drawn from the seed; one device in
	// eligibleOneIn carries a matching capability.
	capability bool
	goal       int
	dp         *dp.Config
	deltaNorm  float64 // L2 norm of the deltas clients upload
}

const eligibleOneIn = 8

var workloads = []workload{
	{name: "fedbuff-16k", fabric: "tcp", numParams: 16384, tasks: 1, goal: 8, deltaNorm: 0.1},
	{name: "dp-int8-1k", fabric: "http", numParams: 1024, compress: "quantized", tasks: 1, goal: 2,
		dp: &dp.Config{Clip: 1.0, NoiseMultiplier: 1.0, Delta: 1e-6}, deltaNorm: 4},
	{name: "checkin-storm", fabric: "tcp", numParams: 1024, tasks: 16, capability: true, goal: 8, deltaNorm: 0.1},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// admissionCeiling is the Coordinator's admission cap in check-ins per
// second: it resets a task's pending counter only on an aggregator
// heartbeat, so at most Concurrency clients are admitted per task per
// heartbeat.
func (w workload) admissionCeiling() float64 {
	return float64(w.tasks*concurrency) / heartbeat.Seconds()
}

// netFabric is the surface the benchmark needs from a networked fabric;
// both backends satisfy it.
type netFabric interface {
	transport.Fabric
	BaseURL() string
	Discover(base string) ([]string, error)
	Stats() transport.Stats
	Close() error
}

func newFabric(kind string, seed int64) (netFabric, error) {
	switch kind {
	case "tcp":
		f, err := tcptransport.New(tcptransport.Options{
			Listen: "127.0.0.1:0", Codec: "bin", AckElide: true, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return f, nil
	case "http":
		f, err := httptransport.New(httptransport.Options{
			Listen: "127.0.0.1:0", Codec: "bin", Stream: true, AckElide: true, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	return nil, fmt.Errorf("unknown fabric %q", kind)
}

// plane is one running control plane: a Coordinator, Aggregators and
// Selectors on a server fabric, and the client fabric devices dial from.
type plane struct {
	wl        workload
	srv, cli  netFabric
	coord     *server.Coordinator
	aggs      []*server.Aggregator
	sels      []*server.Selector
	selectors []string
	specs     []server.TaskSpec
}

func taskSpecs(wl workload) []server.TaskSpec {
	specs := make([]server.TaskSpec, wl.tasks)
	for i := range specs {
		id := "default"
		if wl.tasks > 1 {
			id = fmt.Sprintf("task-%02d", i)
		}
		specs[i] = server.TaskSpec{
			ID:              id,
			Mode:            core.Async,
			NumParams:       wl.numParams,
			Concurrency:     concurrency,
			AggregationGoal: wl.goal,
			UploadChunkSize: chunkSize,
			InitParams:      make([]float32, wl.numParams),
			Compress:        wl.compress,
			DP:              wl.dp,
		}
		if wl.capability {
			specs[i].Capability = capabilityOf(i)
		}
	}
	return specs
}

func capabilityOf(task int) string { return fmt.Sprintf("cap-%02d", task) }

// startPlane brings up a control plane. With a non-nil probe every handler
// the server roles register, and every call they make, is timed.
func startPlane(wl workload, srvProbe probe) (p *plane, err error) {
	p = &plane{wl: wl, specs: taskSpecs(wl)}
	defer func() {
		if err != nil {
			p.stop()
			p = nil
		}
	}()
	if p.srv, err = newFabric(wl.fabric, 1); err != nil {
		return p, err
	}
	// The server roles get the fabric, or the fabric traced.
	var net transport.Fabric = p.srv
	if srvProbe != nil {
		net = wrapFabric(p.srv, srvProbe)
	}
	timings := server.DefaultTimings()
	timings.Heartbeat = heartbeat
	timings.MapRefresh = 2 * heartbeat
	timings.FailureDeadline = 8 * heartbeat

	p.coord = server.NewCoordinator("coordinator", net, timings, 1, false)
	for i := 0; i < numAggs; i++ {
		name := fmt.Sprintf("agg-%d", i)
		p.aggs = append(p.aggs, server.NewAggregator(name, net, "coordinator", timings))
		if _, err = net.Call("bench", "coordinator", "register-aggregator", name); err != nil {
			return p, fmt.Errorf("registering %s: %w", name, err)
		}
	}
	for i := 0; i < numSels; i++ {
		p.sels = append(p.sels, server.NewSelector(fmt.Sprintf("sel-%d", i), net, "coordinator", timings))
	}
	for _, spec := range p.specs {
		if _, err = net.Call("bench", "coordinator", "create-task", spec); err != nil {
			return p, fmt.Errorf("creating task %s: %w", spec.ID, err)
		}
	}

	if p.cli, err = newFabric(wl.fabric, 2); err != nil {
		return p, err
	}
	nodes, err := p.cli.Discover(p.srv.BaseURL())
	if err != nil {
		return p, fmt.Errorf("discovering selectors: %w", err)
	}
	for _, n := range nodes {
		if strings.HasPrefix(n, "sel-") {
			p.selectors = append(p.selectors, n)
		}
	}
	if len(p.selectors) != numSels {
		return p, fmt.Errorf("discovered selectors %v, want %d", p.selectors, numSels)
	}
	return p, nil
}

// admitProbe checks in one device with task 0's capability until a
// check-in is admitted, then fails the session so it closes cleanly. It is
// the end of set-up: the plane can admit clients.
func (p *plane) admitProbe() error {
	req := server.CheckinRequest{ClientID: -1}
	if p.wl.capability {
		req.Capabilities = []string{capabilityOf(0)}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := p.cli.Call("probe", p.selectors[0], "checkin", req)
		if err == nil {
			cr := resp.(server.CheckinResponse)
			if cr.Accepted {
				_, err = p.cli.Call("probe", p.selectors[0], "route", server.RouteRequest{
					TaskID: cr.TaskID, Method: "fail-session",
					Payload: server.FailRequest{TaskID: cr.TaskID, SessionID: cr.SessionID},
				})
				return err
			}
			err = errors.New(cr.Reason)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no check-in admitted within 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// taskInfo queries a task through a selector, as any client would.
func (p *plane) taskInfo(task string) (server.TaskInfo, error) {
	resp, err := p.cli.Call("bench", p.selectors[0], "route", server.RouteRequest{
		TaskID: task, Method: "task-info", Payload: task,
	})
	if err != nil {
		return server.TaskInfo{}, err
	}
	info, ok := resp.(server.TaskInfo)
	if !ok {
		return server.TaskInfo{}, fmt.Errorf("task-info returned %T", resp)
	}
	return info, nil
}

// stop tears the plane down in serve's shutdown order.
func (p *plane) stop() {
	if p.cli != nil {
		_ = p.cli.Close()
	}
	for _, s := range p.sels {
		s.Stop()
	}
	for _, a := range p.aggs {
		a.Stop()
	}
	if p.coord != nil {
		p.coord.Stop()
	}
	if p.srv != nil {
		_ = p.srv.Close()
	}
}
