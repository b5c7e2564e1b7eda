package main

import (
	"crypto/rand"
	"math"
	mrand "math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/transport"
)

// numClients is the closed loop's client goroutine count: one per core of
// the 2-core host the bounds were set on, which keeps client connections
// at two or fewer.
const numClients = 2

// deltaExec skips real training: each session uploads one of a few
// seeded, non-constant deltas of the workload's norm. The client clips in
// place, so every call returns a fresh copy.
type deltaExec struct {
	pool [][]float32
	next int
}

func newDeltaExec(rnd *mrand.Rand, n int, norm float64) *deltaExec {
	e := &deltaExec{}
	for k := 0; k < 4; k++ {
		d := make([]float32, n)
		var ss float64
		for i := range d {
			v := rnd.NormFloat64()
			d[i] = float32(v)
			ss += v * v
		}
		scale := norm / math.Sqrt(ss)
		for i := range d {
			d[i] *= float32(scale)
		}
		e.pool = append(e.pool, d)
	}
	return e
}

func (e *deltaExec) Train([]float32, [][]int) ([]float32, float64) {
	out := make([]float32, len(e.pool[e.next]))
	copy(out, e.pool[e.next])
	e.next = (e.next + 1) % len(e.pool)
	return out, 1.0
}

// counters are the load outcomes of one client goroutine. Fields ending
// in All count every attempt; the rest only those that ended while the
// load was measured.
type counters struct {
	attempts, completed, aborted, errors int64
	eligibleAnswered, rejected           int64 // check-ins of eligible devices
	ineligibleAdmitted                   int64
	completedAll, attemptsAll, failedAll int64
	sessionLat                           []time.Duration // completed sessions
	backoff                              time.Duration   // rejected attempts plus the sleeps after them
	selfTime                             time.Duration   // traced: RunOnce minus calls and train
}

func (c *counters) merge(o *counters) {
	c.attempts += o.attempts
	c.completed += o.completed
	c.aborted += o.aborted
	c.errors += o.errors
	c.eligibleAnswered += o.eligibleAnswered
	c.rejected += o.rejected
	c.ineligibleAdmitted += o.ineligibleAdmitted
	c.completedAll += o.completedAll
	c.attemptsAll += o.attemptsAll
	c.failedAll += o.failedAll
	c.sessionLat = append(c.sessionLat, o.sessionLat...)
	c.backoff += o.backoff
	c.selfTime += o.selfTime
}

// snapshot is the process and fabric state when measuring starts or ends.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	mallocs  uint64
	cli, srv transport.Stats
}

func takeSnapshot(p *plane) snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		cli:     p.cli.Stats(),
		srv:     p.srv.Stats(),
	}
}

// span is what the process and the fabrics did between two snapshots.
type span struct {
	seconds  float64
	cpu      time.Duration
	mallocs  uint64
	cli, srv transport.Stats
}

func between(a, b snapshot) span {
	return span{
		seconds: b.at.Sub(a.at).Seconds(),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		cli:     statsDiff(b.cli, a.cli),
		srv:     statsDiff(b.srv, a.srv),
	}
}

// add accumulates another measured period, so a run made of several
// windows reads as one.
func (s *span) add(o span) {
	s.seconds += o.seconds
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.cli = statsSum(s.cli, o.cli)
	s.srv = statsSum(s.srv, o.srv)
}

func statsDiff(b, a transport.Stats) transport.Stats {
	return transport.Stats{
		Calls:           b.Calls - a.Calls,
		BytesSent:       b.BytesSent - a.BytesSent,
		BytesReceived:   b.BytesReceived - a.BytesReceived,
		AcksElided:      b.AcksElided - a.AcksElided,
		FramesCoalesced: b.FramesCoalesced - a.FramesCoalesced,
	}
}

func statsSum(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		Calls:           a.Calls + b.Calls,
		BytesSent:       a.BytesSent + b.BytesSent,
		BytesReceived:   a.BytesReceived + b.BytesReceived,
		AcksElided:      a.AcksElided + b.AcksElided,
		FramesCoalesced: a.FramesCoalesced + b.FramesCoalesced,
	}
}

// loadResult is the measured period of one or more load windows plus
// their probes.
type loadResult struct {
	c          counters
	checkinLat []time.Duration
	span       span
	clients    []*clientProbe
}

// add merges the result of another window on the same plane.
func (r *loadResult) add(o *loadResult) {
	r.c.merge(&o.c)
	r.checkinLat = append(r.checkinLat, o.checkinLat...)
	r.span.add(o.span)
	r.clients = append(r.clients, o.clients...)
}

// drive runs the closed loop against p: numClients goroutines, each
// sending its next attempt only after the previous one returned, with
// loadtest's jittered backoff honouring the server's Retry-After hint. It
// warms up, measures for the given duration, then stops the clients and
// waits until every session they started has finished.
func drive(p *plane, seed int64, warmup, measure time.Duration, measuring *atomic.Bool, traced bool) *loadResult {
	res := &loadResult{}
	per := make([]counters, numClients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < numClients; g++ {
		cp := &clientProbe{measuring: measuring, full: traced}
		res.clients = append(res.clients, cp)
		wg.Add(1)
		go func(g int, cp *clientProbe, c *counters) {
			defer wg.Done()
			runClient(p, seed, g, cp, c, stop)
		}(g, cp, &per[g])
	}

	time.Sleep(warmup)
	before := takeSnapshot(p)
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	res.span = between(before, takeSnapshot(p))
	close(stop)
	wg.Wait()

	for g := range per {
		res.c.merge(&per[g])
		res.checkinLat = append(res.checkinLat, res.clients[g].checkinLat...)
	}
	return res
}

// runClient is one closed-loop client goroutine.
func runClient(p *plane, seed int64, g int, cp *clientProbe, c *counters, stop <-chan struct{}) {
	wl := p.wl
	rnd := mrand.New(mrand.NewSource(seed*7919 + int64(g)))
	var exec client.Executor = newDeltaExec(rnd, wl.numParams, wl.deltaNorm)
	if cp.full {
		exec = timedExec{inner: exec, cp: cp}
	}
	net := wrapFabric(p.cli, cp)
	store := client.NewExampleStore(0, 0)
	store.Add([]int{1, 2, 3}, time.Now())
	// Spread the initial selector choice across the clients.
	sels := append(append([]string(nil), p.selectors[g%len(p.selectors):]...), p.selectors[:g%len(p.selectors)]...)
	newDevice := func(id int64, caps []string) *client.Runtime {
		return &client.Runtime{
			ClientID:     id,
			Capabilities: caps,
			Store:        store,
			Exec:         exec,
			Net:          net,
			Selectors:    sels,
			State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
			Random:       rand.Reader,
			Stream:       true,
		}
	}
	fixed := newDevice(int64(1000+g), nil)

	// loadtest's per-client jittered exponential backoff.
	const minBackoff, maxBackoff = 5 * time.Millisecond, 200 * time.Millisecond
	backoff := minBackoff
	sleepJittered := func(hint time.Duration, measured bool) {
		d := backoff/2 + time.Duration(rnd.Int63n(int64(backoff)))
		if hint > d {
			d = hint
		}
		start := time.Now()
		t := time.NewTimer(d)
		select {
		case <-stop:
			t.Stop()
		case <-t.C:
		}
		if measured {
			c.backoff += time.Since(start)
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}

	var seq int64
	for {
		select {
		case <-stop:
			return
		default:
		}
		dev, eligible := fixed, true
		if wl.capability {
			// A fresh device per attempt; one in eligibleOneIn carries a
			// task's capability, the rest a capability no task requires.
			seq++
			eligible = rnd.Intn(eligibleOneIn) == 0
			caps := []string{"cap-legacy"}
			if eligible {
				caps = []string{capabilityOf(rnd.Intn(wl.tasks))}
			}
			dev = newDevice(int64(g+1)<<32|seq, caps)
		}
		cp.attemptCall, cp.attemptTrain = 0, 0
		start := time.Now()
		r, err := dev.RunOnce(start)
		d := time.Since(start)
		measured := cp.measuring.Load()
		c.attemptsAll++
		if measured {
			c.attempts++
		}
		if err != nil {
			c.failedAll++
			if measured {
				c.errors++
			}
			sleepJittered(0, measured)
			continue
		}
		if !eligible && r.Outcome != client.Rejected {
			c.ineligibleAdmitted++
		}
		if measured && eligible {
			c.eligibleAnswered++
		}
		switch r.Outcome {
		case client.Completed:
			backoff = minBackoff
			c.completedAll++
			if measured {
				c.completed++
				c.sessionLat = append(c.sessionLat, d)
				if cp.full {
					c.selfTime += d - cp.attemptCall - cp.attemptTrain
				}
			}
		case client.Rejected:
			if measured {
				c.backoff += d
			}
			if eligible {
				if measured {
					c.rejected++
				}
				sleepJittered(r.RetryAfter, measured)
			}
		default:
			backoff = minBackoff
			c.failedAll++
			if measured {
				c.aborted++
			}
		}
	}
}
