// Package fleet supervises a multi-process PAPAYA deployment for the
// failover harness: it spawns tier members (coordinator, aggregator
// agents, routing selectors) as real OS processes, watches their stdout
// for readiness markers, kills and restarts them mid-run, and records
// the measured scaling curve, placement balance, and recovery times in a
// committed benchmark artifact. The package knows nothing about papaya's
// CLI flags — `papaya fleet` (cmd/papaya) composes the topology; this
// package owns process lifecycle and the report schema.
package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Proc is one supervised fleet member: a child process whose stdout and
// stderr are scanned line by line so the harness can sequence startup on
// readiness markers ("papaya agent: ready") and parse bound addresses
// from -listen :0 deployments.
type Proc struct {
	// Name labels the process in echoed output and reports.
	Name string

	cmd *exec.Cmd

	mu      sync.Mutex
	lines   []string
	changed chan struct{} // closed and replaced on every new line or exit
	exited  bool
	waitErr error

	done chan struct{}
}

// Spawn starts bin with args and begins scanning its combined
// stdout/stderr. Each line is echoed to echo (when non-nil) prefixed
// with the process name, and retained for WaitForLine. The child is
// placed in its own process group so harness signals stay targeted.
func Spawn(name, bin string, args []string, echo io.Writer) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	cmd.Stderr = pw
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: starting %s: %w", name, err)
	}
	p := &Proc{
		Name:    name,
		cmd:     cmd,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		err := cmd.Wait()
		_ = pw.Close() // unblocks the scanner
		p.mu.Lock()
		p.exited = true
		p.waitErr = err
		close(p.changed)
		p.changed = make(chan struct{})
		p.mu.Unlock()
		close(p.done)
	}()
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if echo != nil {
				fmt.Fprintf(echo, "[%s] %s\n", name, line)
			}
			p.mu.Lock()
			p.lines = append(p.lines, line)
			close(p.changed)
			p.changed = make(chan struct{})
			p.mu.Unlock()
		}
	}()
	return p, nil
}

// WaitForLine blocks until the process emits a line containing substr
// (returning that line), the process exits, or the timeout elapses.
// Lines printed before the call count — startup races are not missable.
func (p *Proc) WaitForLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if strings.Contains(p.lines[seen], substr) {
				line := p.lines[seen]
				p.mu.Unlock()
				return line, nil
			}
		}
		exited := p.exited
		ch := p.changed
		p.mu.Unlock()
		if exited {
			return "", fmt.Errorf("fleet: %s exited before printing %q", p.Name, substr)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return "", fmt.Errorf("fleet: timeout waiting for %q from %s", substr, p.Name)
		}
		select {
		case <-ch:
		case <-time.After(remain):
			return "", fmt.Errorf("fleet: timeout waiting for %q from %s", substr, p.Name)
		}
	}
}

// signalGroup delivers sig to the child's whole process group (Spawn
// sets Setpgid). Signalling only the direct child would leave forked
// grandchildren alive holding the output pipe, so cmd.Wait — and with
// it Exited — would block until they exit on their own.
func (p *Proc) signalGroup(sig syscall.Signal) {
	if p.cmd.Process != nil && p.cmd.Process.Pid > 0 {
		_ = syscall.Kill(-p.cmd.Process.Pid, sig)
	}
}

// Kill terminates the process group immediately (SIGKILL) — the
// harness's induced failure. It does not wait for cleanup: a killed
// aggregator must look exactly like a crashed machine.
func (p *Proc) Kill() {
	p.signalGroup(syscall.SIGKILL)
}

// Stop asks the process to shut down cleanly (SIGTERM) and waits up to
// timeout before escalating to SIGKILL. It returns the process's exit
// error, nil for a clean exit.
func (p *Proc) Stop(timeout time.Duration) error {
	p.signalGroup(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.Kill()
		<-p.done
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waitErr
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// Report is the BENCH_fleet.json document: one multi-process fleet run
// with its measured scaling curve, placement balance, and failover
// recovery times — the deployable counterpart of the in-process failover
// drills in internal/server.
type Report struct {
	CreatedUnix int64  `json:"created_unix"`
	Commit      string `json:"commit,omitempty"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Fabric      string `json:"fabric"`
	Stream      bool   `json:"stream"`
	Agents      int    `json:"agents"`
	Selectors   int    `json:"selectors"`
	Clients     int    `json:"clients"`

	Phases    []Phase    `json:"phases"`
	Placement Placement  `json:"placement"`
	Failovers []Failover `json:"failovers"`
	// Obs holds each tier process's end-of-run /metrics scrape (nonzero
	// papaya_ samples only), so the committed report carries tier-level
	// counters and latency histograms, not just stdout-derived figures.
	Obs []NodeMetrics `json:"obs,omitempty"`
}

// NodeMetrics is one process's scraped metric samples, keyed by the full
// Prometheus sample name (histograms appear as their cumulative
// _bucket/_sum/_count series).
type NodeMetrics struct {
	Node    string             `json:"node"`
	Metrics map[string]float64 `json:"metrics"`
}

// Phase is one point on the scaling curve: a fixed client count driven
// to an upload target through the selector tier.
type Phase struct {
	Clients          int     `json:"clients"`
	Uploads          int64   `json:"uploads"`
	Rejected         int64   `json:"rejected_checkins"`
	Errors           int64   `json:"transport_errors"`
	WallSeconds      float64 `json:"wall_seconds"`
	UploadsPerSecond float64 `json:"uploads_per_second"`
	P50Millis        float64 `json:"p50_session_millis"`
	P99Millis        float64 `json:"p99_session_millis"`
}

// Placement records how the coordinator's rendezvous placement spread a
// sample of tasks across the live agents. MaxOverMin is the balance
// figure the placement regression test bounds in-process; here it is
// measured against real remote agents.
type Placement struct {
	Tasks      int            `json:"tasks"`
	PerAgent   map[string]int `json:"per_agent"`
	MaxOverMin float64        `json:"max_over_min"`
}

// Failover is one induced failure: the tier member killed, how long
// until the first client upload completed afterwards, and how many
// uploads landed post-failure (proof the fleet kept serving).
type Failover struct {
	Kind            string  `json:"kind"` // "agent-kill", "selector-kill", "agent-restart"
	Target          string  `json:"target"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	UploadsAfter    int64   `json:"uploads_after"`
}

// WriteReport writes the report as indented JSON to path ("-" for
// stdout).
func WriteReport(path string, rep Report) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
