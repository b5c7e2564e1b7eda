package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// Client-observed stages whose transport overhead is reported.
const (
	stageCheckin = iota
	stageDownload
	stageReport
	stageUploadFinal
	numStages
)

var stageNames = [numStages]string{"checkin", "download", "report", "upload_final"}

// sum accumulates a count and a total duration.
type sum struct {
	n int64
	d time.Duration
}

func (s *sum) add(d time.Duration) { s.n++; s.d += d }

// meanUs is the mean in microseconds, 0 without samples.
func (s sum) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.d) / float64(s.n) / 1e3
}

// stageOf maps a client- or selector-side call onto a reported stage.
func stageOf(method string, payload any, noAck bool) int {
	switch method {
	case "checkin":
		return stageCheckin
	case "route":
		rr, ok := payload.(server.RouteRequest)
		if !ok {
			return -1
		}
		switch rr.Method {
		case "download":
			return stageDownload
		case "report":
			return stageReport
		case "upload-chunk":
			if c, ok := rr.Payload.(server.UploadChunk); ok && c.Done && !noAck {
				return stageUploadFinal
			}
		}
	}
	return -1
}

// clientProbe records one client goroutine's calls. Only that goroutine
// touches it while the load runs. Check-in latency is always recorded (it
// is an end-to-end metric); the rest only when full is set.
type clientProbe struct {
	measuring *atomic.Bool
	full      bool

	checkinLat []time.Duration // answered check-ins while measuring
	// downloadsAll counts answered downloads, measured or not. Each is a
	// forwarded response the selector releases to vecpool after sending.
	downloadsAll int64

	calls, dials int64
	stages       [numStages]sum

	// attemptCall and attemptTrain accumulate over the current attempt,
	// measured or not; runClient resets them per attempt.
	attemptCall, attemptTrain time.Duration
}

func (c *clientProbe) handled(string, string, any, any, time.Duration) {}

func (c *clientProbe) called(_, method string, payload any, err error, noAck bool, d time.Duration) {
	c.attemptCall += d
	if method == "route" && err == nil {
		if rr, ok := payload.(server.RouteRequest); ok && rr.Method == "download" {
			c.downloadsAll++
		}
	}
	if !c.measuring.Load() {
		return
	}
	if method == "checkin" && err == nil {
		c.checkinLat = append(c.checkinLat, d)
	}
	if !c.full {
		return
	}
	c.calls++
	if st := stageOf(method, payload, noAck); st >= 0 && err == nil {
		c.stages[st].add(d)
	}
}

func (c *clientProbe) opened(_ string, d time.Duration) {
	c.attemptCall += d
	if c.full && c.measuring.Load() {
		c.dials++
	}
}

// timedExec wraps a client.Executor to time local training.
type timedExec struct {
	inner client.Executor
	cp    *clientProbe
}

func (t timedExec) Train(params []float32, examples [][]int) ([]float32, float64) {
	start := time.Now()
	delta, loss := t.inner.Train(params, examples)
	t.cp.attemptTrain += time.Since(start)
	return delta, loss
}

// serverProbe records every handler and outgoing call on the server
// fabric while the load is measured. Keys are "<role>.<method>" for
// handlers and "out.<role>.<method>" for calls a role makes.
type serverProbe struct {
	measuring *atomic.Bool

	mu       sync.Mutex
	stats    map[string]*sum
	stages   [numStages]sum // selector handler time per client stage
	finish   sum            // final upload chunks, also counted in agg.upload-chunk
	finishes []time.Duration

	checkins, accepted, noDemand int64
	finishOK                     int64
}

func newServerProbe(measuring *atomic.Bool) *serverProbe {
	return &serverProbe{measuring: measuring, stats: make(map[string]*sum)}
}

func roleOf(node string) string {
	switch {
	case node == "coordinator":
		return "coord"
	case strings.HasPrefix(node, "agg-"):
		return "agg"
	case strings.HasPrefix(node, "sel-"):
		return "sel"
	}
	return "other"
}

func (s *serverProbe) addLocked(key string, d time.Duration) {
	st := s.stats[key]
	if st == nil {
		st = &sum{}
		s.stats[key] = st
	}
	st.add(d)
}

func (s *serverProbe) handled(node, method string, payload, out any, d time.Duration) {
	if !s.measuring.Load() {
		return
	}
	role := roleOf(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := role + "." + method
	switch {
	case role == "agg" && method == "upload-chunk":
		if c, ok := payload.(server.UploadChunk); ok && c.Done {
			s.finish.add(d)
			s.finishes = append(s.finishes, d)
			if ur, ok := out.(server.UploadResponse); ok && ur.OK {
				s.finishOK++
			}
		}
	case role == "sel" && method == "checkin":
		s.checkins++
		if cr, ok := out.(server.CheckinResponse); ok {
			if cr.Accepted {
				s.accepted++
			} else if cr.Reason == "no task with demand" {
				s.noDemand++
			}
		}
	}
	s.addLocked(key, d)
	if role == "sel" {
		if st := stageOf(method, payload, false); st >= 0 {
			s.stages[st].add(d)
		}
	}
}

func (s *serverProbe) called(from, method string, _ any, _ error, _ bool, d time.Duration) {
	if !s.measuring.Load() {
		return
	}
	s.mu.Lock()
	s.addLocked("out."+roleOf(from)+"."+method, d)
	s.mu.Unlock()
}

func (s *serverProbe) opened(from string, d time.Duration) {
	if !s.measuring.Load() {
		return
	}
	s.mu.Lock()
	s.addLocked("out."+roleOf(from)+".open-session", d)
	s.mu.Unlock()
}

// get returns the accumulated sum for key (zero if never seen). Call it
// only after the load has drained.
func (s *serverProbe) get(key string) sum {
	if st := s.stats[key]; st != nil {
		return *st
	}
	return sum{}
}

// getAll sums the keys.
func (s *serverProbe) getAll(keys ...string) sum {
	var out sum
	for _, k := range keys {
		st := s.get(k)
		out.n += st.n
		out.d += st.d
	}
	return out
}

// prefixed sums every key with the prefix.
func (s *serverProbe) prefixed(prefix string) sum {
	var out sum
	for k, st := range s.stats {
		if strings.HasPrefix(k, prefix) {
			out.n += st.n
			out.d += st.d
		}
	}
	return out
}
