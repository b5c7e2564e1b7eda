package main

// Fabric selection for the networked CLI commands. serve/agent/loadtest
// can run the control plane over either networked backend — stdlib HTTP
// (the default) or the raw-TCP streaming fabric — behind one flag surface:
// `-fabric http|tcp` on serve and agent, and URL-scheme inference on
// loadtest (`-server tcp://host:port` picks the TCP backend). Both
// backends carry every call as bin frames over streaming sessions.

import (
	"fmt"
	"strings"

	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

// fabricConn is the surface the CLI commands need from a networked
// transport backend; both httptransport.Fabric and tcptransport.Fabric
// satisfy it.
type fabricConn interface {
	transport.Fabric
	BaseURL() string
	Nodes() []string
	Routes() map[string]string
	Close() error
	Advertise(peer string) ([]string, error)
	Discover(base string) ([]string, error)
	Stats() transport.Stats
}

// fabricSpec carries the CLI flags a backend is built from.
type fabricSpec struct {
	kind      string // "http" or "tcp"
	listen    string
	advertise string
	ackElide  bool
	seed      int64
}

// newFabric builds the selected backend.
func newFabric(spec fabricSpec) (fabricConn, error) {
	switch spec.kind {
	case "http", "":
		return httptransport.New(httptransport.Options{
			Listen: spec.listen, AdvertiseURL: spec.advertise,
			AckElide: spec.ackElide, Seed: spec.seed,
		})
	case "tcp":
		return tcptransport.New(tcptransport.Options{
			Listen: spec.listen, AdvertiseAddr: spec.advertise,
			AckElide: spec.ackElide, Seed: spec.seed,
		})
	default:
		return nil, fmt.Errorf("unknown fabric %q (want http|tcp)", spec.kind)
	}
}

// fabricKindForURL infers the backend from a server URL's scheme:
// tcp://host:port is the raw-TCP fabric, everything else is HTTP.
func fabricKindForURL(url string) string {
	if strings.HasPrefix(url, tcptransport.Scheme) {
		return "tcp"
	}
	return "http"
}
