package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// runSelector starts one standalone routing-tier Selector process — the
// paper's client-facing ingress tier (Section 4). It discovers the
// coordinator fabric (learning every advertised aggregator's route from
// the gossiped discovery document), announces itself back so other
// processes learn this selector the same way, and serves check-in and
// route traffic over pooled streamed sessions pinned to the live
// aggregator set. Killing the process exercises the client-side failover
// path (Appendix E.4 "clients retry through a different selector");
// killing an agent behind it exercises the selector's live rebalance —
// pooled sessions drain and new traffic re-pins to the survivors.
func runSelector(args []string) {
	fs := flag.NewFlagSet("selector", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address for this selector")
	advertise := fs.String("advertise", "", "public base URL peers should use (default http://<listen> or tcp://<listen>)")
	coordURL := fs.String("coordinator", "", "base URL of the papaya serve process (required; a tcp:// URL selects the raw-TCP fabric)")
	ackElide := fs.Bool("ack-elide", true, "send non-final streamed upload chunks without per-chunk acknowledgements toward peers that negotiated the capability (serving elided peers is always on)")
	coordName := fs.String("coordinator-name", "coordinator", "coordinator node name")
	name := fs.String("name", "", "selector node name (default selector-<pid>)")
	refresh := fs.Duration("refresh", 250*time.Millisecond, "assignment-map and live-agent refresh cadence")
	obsListen := fs.String("obs-listen", "", "observability listen address (H:P): /metrics, /trace, /debug/vars, /debug/pprof; empty disables")
	_ = fs.Parse(args)

	if *coordURL == "" {
		fmt.Fprintln(os.Stderr, "papaya selector: -coordinator URL is required")
		os.Exit(2)
	}
	selName := *name
	if selName == "" {
		selName = fmt.Sprintf("selector-%d", os.Getpid())
	}

	fabric, err := newFabric(fabricSpec{
		kind: fabricKindForURL(*coordURL), listen: *listen,
		advertise: *advertise, ackElide: *ackElide, seed: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	timings := server.DefaultTimings()
	timings.MapRefresh = *refresh
	// The selector must exist before Advertise: the advertisement carries
	// this fabric's locally served nodes, and an empty document would leave
	// the coordinator (and everyone it gossips to) without our route.
	sel := server.NewSelectorWith(selName, fabric, *coordName, timings,
		server.SelectorOptions{Routing: true})

	// Announce this selector to the coordinator fabric (so its route is
	// gossiped to everyone who discovers the coordinator) and learn the
	// coordinator's nodes plus every route it gossips — including agents
	// that advertised there before us.
	if _, err := fabric.Advertise(*coordURL); err != nil {
		fmt.Fprintf(os.Stderr, "papaya selector: advertising to %s: %v\n", *coordURL, err)
		os.Exit(1)
	}
	// Gossip carries routes, not capabilities: visit each gossiped fabric
	// once so ack-elision negotiation toward it has a real document.
	discoverGossiped(fabric, *coordURL)

	// Keep discovery fresh in the background: agents that join after us
	// reach the coordinator's gossip on their advertise; we pick their
	// routes (and capability documents) up on the next tick, and the
	// selector's own list-agents refresh re-pins traffic.
	stopDiscover := make(chan struct{})
	go func() {
		ticker := time.NewTicker(*refresh)
		defer ticker.Stop()
		for {
			select {
			case <-stopDiscover:
				return
			case <-ticker.C:
				discoverGossiped(fabric, *coordURL)
			}
		}
	}()

	obsShutdown := startObs("selector", *obsListen, fabric, fabricKindForURL(*coordURL))
	defer obsShutdown()

	fmt.Printf("papaya selector: %s serving on %s, coordinator %s\n",
		selName, fabric.BaseURL(), *coordURL)
	fmt.Println("papaya selector: ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	close(stopDiscover)
	sel.Stop()
	_ = fabric.Close()
	fmt.Println("papaya selector: clean shutdown")
}

// discoverGossiped refreshes the coordinator's discovery document, then
// visits every distinct base URL the fabric has routes toward so peer
// capabilities stay current. Unreachable peers are skipped — a dead
// agent's stale route is harmless (calls toward it fail fast and the
// selector re-pins via list-agents).
func discoverGossiped(fabric fabricConn, coordURL string) {
	_, _ = fabric.Discover(coordURL)
	visited := map[string]bool{coordURL: true}
	for _, base := range fabric.Routes() {
		if visited[base] {
			continue
		}
		visited[base] = true
		_, _ = fabric.Discover(base)
	}
}
