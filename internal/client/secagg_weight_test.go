package client

// SecAgg devices weight their update before masking, so the weight they
// encode in the vector's extra slot must be the task's own aggregation
// rule — the one the plaintext path applies server-side — not a fixed
// 1/sqrt(1+s).

import (
	"crypto/rand"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/fedopt"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/transport"
)

// secAggStub serves one SecAgg participation whose report names an
// aggregation rule and lags the download by a fixed number of versions. It
// reassembles the masked upload and unmasks it with the deployment's own
// aggregator, exposing the plaintext weighted vector.
type secAggStub struct {
	dep       *secagg.Deployment
	rule      string
	param     float64
	staleness int
	masked    []uint32
	unmasked  []float32
}

func (s *secAggStub) handle(method string, payload any) (any, error) {
	switch method {
	case "checkin":
		return server.CheckinResponse{
			Accepted: true, TaskID: "t", Aggregator: "agg", SessionID: 1, Version: 0,
		}, nil
	case "route":
		req := payload.(server.RouteRequest)
		switch req.Method {
		case "download":
			return server.DownloadResponse{Params: make([]float32, 56), Version: 0}, nil
		case "report":
			bundles, err := s.dep.FetchInitialBundles(1)
			if err != nil {
				return nil, err
			}
			return server.ReportResponse{
				OK: true, ChunkSize: 16, CurrentVersion: s.staleness,
				SecAggEnabled: true, SecAggBundle: &bundles[0], SecAggTrust: s.dep.ClientTrust(),
				Aggregation: s.rule, AggParam: s.param,
			}, nil
		case "upload-chunk":
			c := req.Payload.(server.UploadChunk)
			if s.masked == nil {
				s.masked = make([]uint32, s.dep.Params.VecLen)
			}
			copy(s.masked[c.Offset:], c.Masked)
			if c.Done {
				agg := s.dep.NewAggregator()
				if err := agg.Add(secagg.Upload{
					Index: c.SecAggIndex, Masked: s.masked,
					Completing: c.SecAggCompleting, EncSeed: c.SecAggEncSeed,
				}); err != nil {
					return nil, err
				}
				group, _, err := agg.UnmaskGroup()
				if err != nil {
					return nil, err
				}
				s.unmasked = make([]float32, len(group))
				s.dep.Params.Codec().DecodeVec(s.unmasked, group)
			}
			return server.UploadResponse{OK: true}, nil
		}
		return nil, fmt.Errorf("secagg stub: unknown routed method %q", req.Method)
	}
	return nil, fmt.Errorf("secagg stub: unknown method %q", method)
}

// TestSecAggWeightFollowsTaskRule: at staleness >= 1 the weight a device
// encodes in the extra slot equals the task rule's Weight(n, s), for
// fedavg (no staleness damping) and fedbuff with exponent 1.
func TestSecAggWeightFollowsTaskRule(t *testing.T) {
	const numExamples, staleness = 5, 3
	for _, tc := range []struct {
		rule  string
		param float64
	}{
		{"fedavg", 0},
		{"fedbuff", 1},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			dep, err := secagg.NewDeployment(secagg.Params{
				VecLen: 57, Threshold: 1, Scale: 1 << 16,
			}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			stub := &secAggStub{dep: dep, rule: tc.rule, param: tc.param, staleness: staleness}
			net := transport.NewNetwork(1)
			net.Register("sel", stub.handle)
			delta := make([]float32, 56)
			for i := range delta {
				delta[i] = 0.25
			}
			store := NewExampleStore(0, 0)
			for i := 0; i < numExamples; i++ {
				store.Add([]int{1, 2, 3}, time.Now())
			}
			r := &Runtime{
				ClientID:     1,
				Capabilities: []string{"lm"},
				Store:        store,
				Exec:         fixedDeltaExec{delta: delta},
				Net:          net,
				Selectors:    []string{"sel"},
				State:        DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:       rand.Reader,
				Compress:     []string{"none"},
			}
			res, err := r.RunOnce(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != Completed || res.Staleness != staleness {
				t.Fatalf("outcome = %s (%s), staleness %d", res.Outcome, res.Reason, res.Staleness)
			}
			if stub.unmasked == nil {
				t.Fatal("no masked upload was completed")
			}
			rule, err := fedopt.AggregationByName(tc.rule, tc.param)
			if err != nil {
				t.Fatal(err)
			}
			want := rule.Weight(numExamples, staleness)
			got := float64(stub.unmasked[len(stub.unmasked)-1])
			if math.Abs(got-want) > 1e-4 {
				t.Fatalf("encoded weight = %v, want %s Weight(%d, %d) = %v",
					got, tc.rule, numExamples, staleness, want)
			}
			if d := float64(stub.unmasked[0]); math.Abs(d-0.25*want) > 1e-3 {
				t.Fatalf("weighted delta[0] = %v, want %v", d, 0.25*want)
			}
		})
	}
}
