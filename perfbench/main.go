// Command perfbench is the repository's benchmark: it runs the real
// PAPAYA control plane in one process, the way `papaya serve` assembles
// it, drives closed-loop client.Runtime devices against it over loopback,
// checks the outputs, and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) by name with its unit. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics. README.md explains the workloads and metrics.
//
//	go run . -workload fedbuff-16k -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	// A -trace 0 run sets the plane up again and again for setupWindow,
	// at least minSetups times; setup_s is the median of those set-ups.
	// One set-up is a few milliseconds of round trips, so its time follows
	// the host's short stalls; a window of a few hundred set-ups evens
	// them out where 21 did not. maxSetups bounds the loopback connections
	// the set-ups leave in TIME_WAIT.
	setupWindow = 2 * time.Second
	minSetups   = 21
	maxSetups   = 1000
	warmup      = time.Second
	// A traced run alternates tracePairs pairs of windows between its bare
	// and its traced plane. Each window after the first pair warms up for
	// rewarm only: its plane is warm, just the clients are new.
	tracePairs = 4
	rewarm     = 200 * time.Millisecond
	// runDeadline bounds a whole run, which must end within 180 s.
	runDeadline = 170 * time.Second
	// parityTolerance bounds the relative difference of the per-upload
	// elision and coalescing counts between the bare and traced windows;
	// sessions straddling the edges of the windows blur them.
	parityTolerance = 0.05
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// print writes one line per metric, sorted by name.
func (m metrics) print(prefix string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-40s %16.6f %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fedbuff-16k, dp-int8-1k or checkin-storm")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "measured seconds per load run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runDeadline)
		os.Exit(3)
	})
	printHost(wl)

	scrapeURL, shutdown, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer shutdown()

	measure := time.Duration(*seconds) * time.Second
	var res result
	var fails []string
	if *trace == 0 {
		res, fails = runEndToEnd(wl, *seed, measure, scrapeURL)
	} else {
		res, fails = runTraced(wl, *seed, measure, scrapeURL)
	}
	res.Correct = len(fails) == 0
	for _, f := range fails {
		fmt.Println("CHECK FAILED:", f)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		_ = shutdown()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runEndToEnd sets the plane up repeatedly for setupWindow, keeps the last
// one, and measures the closed loop against it untraced.
func runEndToEnd(wl workload, seed int64, measure time.Duration, scrapeURL string) (result, []string) {
	var setups []float64
	var p *plane
	window := time.Now()
	for len(setups) < minSetups || (time.Since(window) < setupWindow && len(setups) < maxSetups) {
		if p != nil {
			p.stop()
			// Collect the torn-down plane so its garbage does not add to
			// the measured plane's peak resident set.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if p, err = startPlane(wl, nil); err != nil {
			fatal(err)
		}
		if err := p.admitProbe(); err != nil {
			fatal(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	lr := drive(p, seed, warmup, measure, new(atomic.Bool), false)
	fails := checkPlane(p, lr, seed, scrapeURL)
	p.stop()

	m := endToEnd(lr)
	m.put("setup_s", median(setups), "s")
	m.put("rss_peak_mb", rssPeakMB(), "MiB")
	m.print("")
	printDiagnostics(wl, lr)
	gated := metrics{}
	for _, n := range gatedMetrics {
		gated[n] = m[n]
	}
	return result{Attempted: lr.c.attemptsAll, Failed: lr.c.failedAll, Metrics: gated}, fails
}

// runTraced measures the workload on two planes, one bare and one with
// every fabric, handler and executor decorated, in tracePairs pairs of
// short windows that alternate between them (bare first, then traced
// first), so both see the same drift of the host. Then it checks both
// planes and times each kernel in isolation.
func runTraced(wl workload, seed int64, measure time.Duration, scrapeURL string) (result, []string) {
	bare, err := startPlane(wl, nil)
	if err != nil {
		fatal(err)
	}
	measuring := new(atomic.Bool)
	sp := newServerProbe(measuring)
	tp, err := startPlane(wl, sp)
	if err != nil {
		fatal(err)
	}
	window := measure / (2 * tracePairs)
	plain, traced := &loadResult{}, &loadResult{}
	var overheads []float64
	for i := 0; i < tracePairs; i++ {
		warm := rewarm
		if i == 0 {
			warm = warmup
		}
		var u, t *loadResult
		if i%2 == 0 {
			u = drive(bare, seed, warm, window, new(atomic.Bool), false)
			t = drive(tp, seed, warm, window, measuring, true)
		} else {
			t = drive(tp, seed, warm, window, measuring, true)
			u = drive(bare, seed, warm, window, new(atomic.Bool), false)
		}
		cu, ct := cpuPerUpload(u), cpuPerUpload(t)
		overheads = append(overheads, ratio(ct-cu, cu))
		plain.add(u)
		traced.add(t)
	}
	fails := checkPlane(bare, plain, seed, scrapeURL)
	bare.stop()
	fails = append(fails, checkPlane(tp, traced, seed, scrapeURL)...)
	tp.stop()
	endToEnd(plain).print("untraced ")
	endToEnd(traced).print("traced ")
	printDiagnostics(wl, traced)

	m := perLayer(traced, sp)
	m.put("trace.overhead_frac", median(overheads), "frac")
	for _, k := range []string{"transport.acks_elided_per_upload", "transport.frames_coalesced_per_upload"} {
		u, t := transportCounts(plain)[k], m[k].Value
		if math.Abs(u-t) > parityTolerance*math.Max(u, t) {
			fails = append(fails, fmt.Sprintf("decorator parity: %s is %.4f untraced but %.4f traced", k, u, t))
		}
	}
	kernels, err := runKernels(wl, seed)
	if err != nil {
		fails = append(fails, err.Error())
	}
	for k, v := range kernels {
		m.put(k, v, "us")
	}
	m.print("")
	return result{
		Attempted: plain.c.attemptsAll + traced.c.attemptsAll,
		Failed:    plain.c.failedAll + traced.c.failedAll,
		Metrics:   m,
	}, fails
}

// cpuPerUpload is the process CPU time per completed upload, in ms.
func cpuPerUpload(r *loadResult) float64 { return perUpload(r, r.span.cpu.Seconds()*1e3) }

// perUpload divides by the uploads completed while measuring.
func perUpload(r *loadResult, v float64) float64 { return ratio(v, float64(r.c.completed)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gatedMetrics are the end-to-end metrics BENCHMARK.json bounds and a
// -trace 0 run reports in its JSON line. The timing metrics endToEnd also
// prints drift by 15-30% between runs with the speed of the shared host
// the bounds were set on, more than any bound a gate may have, so they
// are printed for paired comparisons but not gated.
var gatedMetrics = []string{"allocs_per_upload", "client_kb_per_upload", "setup_s", "rss_peak_mb"}

// endToEnd computes the end-to-end metrics of one load run (setup_s and
// rss_peak_mb are added by the caller).
func endToEnd(r *loadResult) metrics {
	secs := r.span.seconds
	m := metrics{}
	m.put("uploads_per_s", float64(r.c.completed)/secs, "1/s")
	m.put("checkins_per_s", float64(len(r.checkinLat))/secs, "1/s")
	m.put("session_p50_ms", percentileMs(r.c.sessionLat, 0.50), "ms")
	m.put("session_p90_ms", percentileMs(r.c.sessionLat, 0.90), "ms")
	m.put("checkin_p50_ms", percentileMs(r.checkinLat, 0.50), "ms")
	m.put("checkin_p90_ms", percentileMs(r.checkinLat, 0.90), "ms")
	m.put("cpu_ms_per_upload", cpuPerUpload(r), "ms")
	m.put("allocs_per_upload", perUpload(r, float64(r.span.mallocs)), "count")
	cliBytes := r.span.cli.BytesSent + r.span.cli.BytesReceived
	m.put("client_kb_per_upload", perUpload(r, float64(cliBytes)/1024), "KiB")
	m.put("reject_frac", ratio(float64(r.c.rejected), float64(r.c.eligibleAnswered)), "frac")
	m.put("error_frac", ratio(float64(r.c.errors+r.c.aborted), float64(r.c.attempts)), "frac")
	return m
}

// transportCounts are the device-side stream counters per upload; they
// come from the fabric's own counters, so untraced runs have them too.
func transportCounts(r *loadResult) map[string]float64 {
	return map[string]float64{
		"transport.acks_elided_per_upload":      perUpload(r, float64(r.span.cli.AcksElided)),
		"transport.frames_coalesced_per_upload": perUpload(r, float64(r.span.cli.FramesCoalesced)),
	}
}

// perLayer derives the per-layer metrics of a traced run. A layer's self
// time is its handler time minus the time its outgoing calls took.
func perLayer(r *loadResult, sp *serverProbe) metrics {
	m := metrics{}
	var calls, dials int64
	var stages [numStages]sum
	for _, cp := range r.clients {
		calls += cp.calls
		dials += cp.dials
		for i, st := range cp.stages {
			stages[i].n += st.n
			stages[i].d += st.d
		}
	}
	m.put("client.session_self_us", perUpload(r, float64(r.c.selfTime)/1e3), "us")
	m.put("client.backoff_ms_per_upload", perUpload(r, r.c.backoff.Seconds()*1e3), "ms")
	m.put("client.calls_per_upload", perUpload(r, float64(calls)), "count")
	m.put("client.dials_per_upload", perUpload(r, float64(dials)), "count")
	for i, n := range stageNames {
		m.put("transport.overhead_us."+n, stages[i].meanUs()-sp.stages[i].meanUs(), "us")
	}
	for k, v := range transportCounts(r) {
		m.put(k, v, "count")
	}
	srvBytes := r.span.srv.BytesSent + r.span.srv.BytesReceived
	m.put("transport.server_kb_per_upload", perUpload(r, float64(srvBytes)/1024), "KiB")

	selfUs := func(handler sum, out sum) float64 {
		return ratio(float64(handler.d-out.d)/1e3, float64(handler.n))
	}
	checkin := sp.get("sel.checkin")
	m.put("selector.checkin_us", checkin.meanUs(), "us")
	m.put("selector.checkin_self_us", selfUs(checkin, sp.getAll("out.sel.assign-client", "out.sel.join")), "us")
	m.put("selector.route_self_us", selfUs(sp.get("sel.route"), sp.getAll("out.sel.download", "out.sel.report",
		"out.sel.upload-chunk", "out.sel.task-info", "out.sel.fail-session")), "us")
	m.put("selector.accept_frac", ratio(float64(sp.accepted), float64(sp.checkins)), "frac")
	m.put("selector.no_demand_per_upload", perUpload(r, float64(sp.noDemand)), "count")

	assign := sp.get("coord.assign-client")
	m.put("coordinator.assign_client_us", assign.meanUs(), "us")
	m.put("coordinator.assign_per_upload", perUpload(r, float64(assign.n)), "count")
	m.put("coordinator.agg_report_us", sp.get("coord.agg-report").meanUs(), "us")
	m.put("coordinator.map_request_us", sp.get("coord.map-request").meanUs(), "us")

	for _, h := range []string{"join", "download", "report"} {
		m.put("aggregator."+h+"_us", sp.get("agg."+h).meanUs(), "us")
	}
	m.put("aggregator.chunk_us", sp.get("agg.upload-chunk").meanUs(), "us")
	m.put("aggregator.finish_us", sp.finish.meanUs(), "us")
	m.put("aggregator.finish_p90_us", percentileMs(sp.finishes, 0.90)*1e3, "us")
	m.put("aggregator.busy_us_per_upload", perUpload(r, float64(sp.prefixed("agg.").d)/1e3), "us")
	m.put("aggregator.upload_accept_frac", ratio(float64(sp.finishOK), float64(len(sp.finishes))), "frac")
	return m
}

// printDiagnostics prints what a reader needs to interpret the metrics:
// the p99 tail and the admission ceiling.
func printDiagnostics(wl workload, r *loadResult) {
	fmt.Printf("diag session_p99_ms %.3f (%d sessions)\n", percentileMs(r.c.sessionLat, 0.99), len(r.c.sessionLat))
	fmt.Printf("diag admission_ceiling_per_s %.1f (sum of task concurrency %d / heartbeat %v)\n",
		wl.admissionCeiling(), wl.tasks*concurrency, heartbeat)
	fmt.Printf("diag outcomes: %d attempts, %d completed, %d eligible check-ins, %d rejected, %d aborted, %d transport errors\n",
		r.c.attempts, r.c.completed, r.c.eligibleAnswered, r.c.rejected, r.c.aborted, r.c.errors)
}

func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(p*float64(len(sorted)-1))]) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// rssPeakMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// printHost prints the host fingerprint every result is read against.
func printHost(wl workload) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host := map[string]any{
		"workload":   wl.name,
		"commit":     commit,
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
	blob, _ := json.Marshal(host)
	fmt.Println("host", string(blob))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
