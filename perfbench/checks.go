package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dp"
	"repro/internal/obs"
	"repro/internal/vecf"
	"repro/internal/vecpool"
)

// leaseBurst is how long the lease check drives the plane with vecpool's
// provenance table on.
const leaseBurst = 300 * time.Millisecond

// checkPlane runs a short burst on p with vecpool's provenance lease table
// on, then the output checks once it has drained. lr is everything p was
// driven with before; the burst's attempts are added to it. The burst
// exists because the plain lease counters also count Puts of pool-sized
// slices the pool never leased (a selector releasing a forwarded download
// it decoded itself), so only the provenance table can show whether every
// lease came back; it costs a mutex per lease, which is why the measured
// windows run without it. The table sets a second Put of a returned lease
// aside as foreign, so the foreign Puts are bounded too: at most one per
// download the burst's clients received, plus one per session still open
// when the table was switched on, whose reassembly vector the table never
// saw leased. It returns one line per failed check.
func checkPlane(p *plane, lr *loadResult, seed int64, scrapeURL string) []string {
	var fails []string
	open, err := openSessions(scrapeURL)
	if err != nil {
		fails = append(fails, fmt.Sprintf("scraping /metrics: %v", err))
	}
	vecpool.SetDebug(true)
	base := vecpool.OutstandingFloats()
	burst := drive(p, seed+1, leaseBurst, 0, new(atomic.Bool), false)
	leased := vecpool.OutstandingFloats() - base
	foreign := vecpool.ForeignPuts()
	vecpool.SetDebug(false)
	var downloads int64
	for _, cp := range burst.clients {
		downloads += cp.downloadsAll
	}
	fmt.Printf("diag lease check: %d sessions open before, %d sessions, %d downloads, %d float vectors still leased, %d foreign puts quarantined\n",
		open, burst.c.completedAll, downloads, leased, foreign)

	lr.c.completedAll += burst.c.completedAll
	lr.c.attemptsAll += burst.c.attemptsAll
	lr.c.failedAll += burst.c.failedAll
	lr.c.ineligibleAdmitted += burst.c.ineligibleAdmitted
	fails = append(fails, checkOutputs(p, lr, scrapeURL)...)
	// Every non-final chunk of an upload rides the stream unacknowledged,
	// on both fabrics. Fewer elided acks mean a decorator or the client
	// fell back to the acked path.
	chunks := (p.wl.numParams + chunkSize - 1) / chunkSize
	if got, want := transportCounts(lr)["transport.acks_elided_per_upload"], float64(chunks-1); math.Abs(got-want) > 0.05*math.Max(want, 1) {
		fails = append(fails, fmt.Sprintf("ack elision: %.4f acks elided per upload, want %v", got, want))
	}
	if leased != 0 {
		fails = append(fails, fmt.Sprintf("vecpool: %d float vectors still leased after drain", leased))
	}
	if foreign > downloads+open {
		fails = append(fails, fmt.Sprintf("vecpool: %d foreign or repeated puts for %d forwarded downloads and %d sessions open before",
			foreign, downloads, open))
	}
	return fails
}

// checkOutputs runs the output checks on the plane's final state. It
// returns one line per failed check.
func checkOutputs(p *plane, res *loadResult, scrapeURL string) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	var updates int64
	for _, spec := range p.specs {
		info, err := p.taskInfo(spec.ID)
		if err != nil {
			failf("task-info %s: %v", spec.ID, err)
			continue
		}
		updates += info.Updates
		// FedBuff releases the whole buffer once it holds at least K
		// updates. Finishers add outside the task lock, so a release can
		// hold up to K-1+numClients updates, and fewer than K are left
		// unreleased at the end.
		k, u := spec.AggregationGoal, int(info.Updates)
		if hi, lo := u/k, ceilDiv(u-k+1, k-1+numClients); info.Version > hi || info.Version < lo {
			failf("task %s: version %d after %d updates, want within [%d, %d] for K=%d",
				spec.ID, info.Version, u, lo, hi, k)
		}
		if !vecf.AllFinite(info.Params) {
			failf("task %s: final params are not finite", spec.ID)
		}
		if spec.DP != nil {
			if info.DPReleases != info.Version {
				failf("task %s: %d DP releases for version %d", spec.ID, info.DPReleases, info.Version)
			}
			if want := dp.New(*spec.DP).EpsilonAfter(info.DPReleases); info.DPEpsilon != want {
				failf("task %s: epsilon %v after %d releases, want %v", spec.ID, info.DPEpsilon, info.DPReleases, want)
			}
		}
	}
	if updates != res.c.completedAll {
		failf("server counted %d updates, clients completed %d uploads", updates, res.c.completedAll)
	}
	if res.c.ineligibleAdmitted != 0 {
		failf("%d devices without a matching capability were admitted", res.c.ineligibleAdmitted)
	}
	if open, err := openSessions(scrapeURL); err != nil {
		failf("scraping /metrics: %v", err)
	} else if open != 0 {
		failf("/metrics: %d sessions opened but neither closed nor reaped", open)
	}
	return fails
}

// openSessions is papaya_sessions_opened_total minus closed and reaped,
// over every node, from a /metrics scrape.
func openSessions(scrapeURL string) (int64, error) {
	samples, err := scrape(scrapeURL)
	if err != nil {
		return 0, err
	}
	opened := sumFamily(samples, "papaya_sessions_opened_total")
	closed := sumFamily(samples, "papaya_sessions_closed_total")
	reaped := sumFamily(samples, "papaya_sessions_reaped_total")
	return int64(opened - closed - reaped), nil
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %s: %s", resp.Status, body)
	}
	return obs.ParseText(resp.Body)
}

// sumFamily sums every labelled series of one metric family.
func sumFamily(samples map[string]float64, family string) float64 {
	var total float64
	for name, v := range samples {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return total
}
