package wire_test

import (
	"crypto/rand"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/transport/wire"
)

// secaggWorld builds a live deployment so samples carry real crypto
// material (bundle, trust, masked shares), not synthetic bytes.
type secaggWorld struct {
	dep    *secagg.Deployment
	trust  secagg.ClientTrust
	bundle secagg.InitialBundle
	upload secagg.Upload
}

func newSecaggWorld(t *testing.T) *secaggWorld {
	t.Helper()
	params := secagg.Params{VecLen: 6, Threshold: 2, Scale: 1 << 16}
	dep, err := secagg.NewDeployment(params, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := dep.FetchInitialBundles(1)
	if err != nil {
		t.Fatal(err)
	}
	trust := dep.ClientTrust()
	sess, err := secagg.NewClientSession(trust, bundles[0], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	up, err := sess.MaskUpdate([]float32{0.5, -0.25, 1, 0, 2, -3}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &secaggWorld{dep: dep, trust: trust, bundle: bundles[0], upload: up}
}

// samples returns one populated value per registered wire name. The test
// below fails if a registered message has no sample (or vice versa), so
// adding a wire message forces adding its round-trip coverage here.
func samples(t *testing.T, w *secaggWorld) map[string]any {
	t.Helper()
	spec := server.TaskSpec{
		ID: "wt", Mode: core.Async, NumParams: 4, Concurrency: 8,
		AggregationGoal: 2, MaxStaleness: 3, Capability: "lm",
		InitParams: []float32{1, 2, 3, 4}, AggShards: 2, UploadChunkSize: 2,
		DP: &dp.Config{Clip: 1, NoiseMultiplier: 2, Delta: 1e-6, EpsilonBudget: 5},
	}
	secSpec := spec
	secSpec.ID = "wt-sec"
	secSpec.SecAgg = w.dep

	return map[string]any{
		"papaya/v1/string": "aggregator-a",
		"papaya/v1/bool":   true,

		"papaya/v1/server.TaskSpec":   secSpec,
		"papaya/v1/server.Assignment": server.Assignment{TaskID: "wt", Aggregator: "agg-0", Seq: 4},
		"papaya/v1/server.AggReport": server.AggReport{
			Aggregator: "agg-0",
			Tasks: map[string]server.TaskReport{
				"wt": {Spec: spec, Seq: 4, ActiveClients: 2, Demand: 6, Version: 9,
					Updates: 31, Checkpoint: []float32{4, 3, 2, 1}},
			},
		},
		"papaya/v1/server.AggDirective": server.AggDirective{DropTasks: []string{"stale-1", "stale-2"}},
		"papaya/v1/server.AssignTaskRequest": server.AssignTaskRequest{
			Spec: spec, Seq: 5, Checkpoint: []float32{9, 8, 7, 6}, Version: 11,
		},
		"papaya/v1/server.AssignClientRequest": server.AssignClientRequest{
			ClientID: 77, Capabilities: []string{"lm", "gpu"},
		},
		"papaya/v1/server.AssignClientResponse": server.AssignClientResponse{
			Assigned: true, TaskID: "wt", Aggregator: "agg-0", Seq: 4,
		},
		"papaya/v1/server.MapResponse": server.MapResponse{
			Assignments: map[string]server.Assignment{
				"wt": {TaskID: "wt", Aggregator: "agg-0", Seq: 4},
			},
		},
		"papaya/v1/server.AgentListResponse": server.AgentListResponse{
			Agents: []string{"agg-0", "agg-1"},
		},
		"papaya/v1/server.ReconfigureRequest": server.ReconfigureRequest{
			TaskID: "wt", Mode: core.Sync, AggregationGoal: 3, MaxStaleness: 1,
		},
		"papaya/v1/server.CheckinRequest": server.CheckinRequest{ClientID: 5, Capabilities: []string{"lm"}},
		"papaya/v1/server.CheckinResponse": server.CheckinResponse{
			Accepted: true, TaskID: "wt", Aggregator: "agg-0", SessionID: 12, Version: 9,
			RetryAfterMs: 40,
		},
		"papaya/v1/server.JoinRequest": server.JoinRequest{TaskID: "wt", ClientID: 5},
		"papaya/v1/server.JoinResponse": server.JoinResponse{
			Accepted: true, SessionID: 12, Version: 9, RetryAfterMs: 40,
		},
		"papaya/v1/server.DownloadRequest": server.DownloadRequest{
			TaskID: "wt", SessionID: 12,
		},
		"papaya/v1/server.DownloadResponse": server.DownloadResponse{Params: []float32{1, 2, 3, 4}, Version: 9},
		"papaya/v1/server.ReportRequest":    server.ReportRequest{TaskID: "wt", SessionID: 12},
		"papaya/v1/server.ReportResponse": server.ReportResponse{
			OK: true, ChunkSize: 2, CurrentVersion: 9,
			DPClip: 1.5, DPLocalNoise: 0.75,
			SecAggEnabled: true, SecAggBundle: &w.bundle, SecAggTrust: w.trust,
		},
		// The masked-share payload: a SecAgg upload chunk carrying the
		// one-time-padded vector and the sealed-seed envelope.
		"papaya/v1/server.UploadChunk": server.UploadChunk{
			TaskID: "wt-sec", SessionID: 12, Offset: 0,
			Masked: w.upload.Masked, Done: true, NumExamples: 3,
			SecAggIndex:      w.upload.Index,
			SecAggCompleting: w.upload.Completing,
			SecAggEncSeed:    w.upload.EncSeed,
		},
		"papaya/v1/server.UploadResponse": server.UploadResponse{OK: false, Reason: "staleness exceeded"},
		"papaya/v1/server.FailRequest":    server.FailRequest{TaskID: "wt", SessionID: 12},
		"papaya/v1/server.RouteRequest": server.RouteRequest{
			TaskID: "wt", Method: "download",
			Payload: server.DownloadRequest{TaskID: "wt", SessionID: 12},
		},
		"papaya/v1/server.TaskInfo": server.TaskInfo{
			Version: 9, Updates: 31, Active: 2, Params: []float32{1, 2, 3, 4},
			DPEnabled: true, DPEpsilon: 3.25, DPDelta: 1e-6, DPReleases: 7,
			DPBudget: 8, DPExhausted: true,
		},
	}
}

// checkRoundTrip compares a decoded message with its original. Task specs
// carrying a SecAgg deployment are the one special case: the wire form is a
// recipe, so the reconstructed deployment is a fresh enclave with the same
// public parameters (see secagg's recipe comment), not a byte-equal copy.
func checkRoundTrip(t *testing.T, name string, in, out any) {
	t.Helper()
	if spec, ok := in.(server.TaskSpec); ok && spec.SecAgg != nil {
		got, ok := out.(server.TaskSpec)
		if !ok {
			t.Fatalf("%s: decoded type %T", name, out)
		}
		if got.SecAgg == nil {
			t.Fatalf("%s: SecAgg deployment lost in transit", name)
		}
		if got.SecAgg.Params != spec.SecAgg.Params {
			t.Fatalf("%s: SecAgg params %+v -> %+v", name, spec.SecAgg.Params, got.SecAgg.Params)
		}
		// Decoding must be inert (specs ride every heartbeat; decoding one
		// must not launch enclaves) ...
		if got.SecAgg.Enclave != nil {
			t.Fatalf("%s: decode launched an enclave; recipes must be inert", name)
		}
		// ... and Live must turn the recipe into a serving deployment.
		live, err := got.SecAgg.Live()
		if err != nil {
			t.Fatalf("%s: launching from recipe: %v", name, err)
		}
		if _, err := live.FetchInitialBundles(1); err != nil {
			t.Fatalf("%s: recipe-launched deployment is dead: %v", name, err)
		}
		spec.SecAgg, got.SecAgg = nil, nil
		if !reflect.DeepEqual(spec, got) {
			t.Fatalf("%s: non-SecAgg fields mangled:\n in: %+v\nout: %+v", name, spec, got)
		}
		return
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("%s round trip mangled:\n in: %#v\nout: %#v", name, in, out)
	}
}

func TestEveryRegisteredMessageRoundTrips(t *testing.T) {
	w := newSecaggWorld(t)
	sam := samples(t, w)

	// The sample set and the registry must cover each other exactly.
	names := wire.Names()
	for _, name := range names {
		if _, ok := sam[name]; !ok {
			t.Errorf("registered message %q has no round-trip sample", name)
		}
	}
	if len(sam) != len(names) {
		for name := range sam {
			if _, err := wire.NewValue(name); err != nil {
				t.Errorf("sample %q is not a registered message", name)
			}
		}
	}

	forEachFraming(t, func(t *testing.T, enc frameEncoder) {
		bin := wire.Binary{}
		for name, in := range sam {
			// Round trip as a request payload.
			frame, err := enc.AppendRequest(nil, &wire.Request{From: "tester", Method: "m", Payload: in})
			if err != nil {
				t.Fatalf("%s: encode request: %v", name, err)
			}
			req, err := bin.DecodeRequest(frame)
			if err != nil {
				t.Fatalf("%s: decode request: %v", name, err)
			}
			if req.From != "tester" || req.Method != "m" {
				t.Fatalf("%s: envelope fields mangled: %+v", name, req)
			}
			checkRoundTrip(t, name, in, req.Payload)

			// And as a response payload.
			frame, err = enc.AppendResponse(nil, &wire.Response{Payload: in})
			if err != nil {
				t.Fatalf("%s: encode response: %v", name, err)
			}
			resp, err := bin.DecodeResponse(frame)
			if err != nil {
				t.Fatalf("%s: decode response: %v", name, err)
			}
			checkRoundTrip(t, name, in, resp.Payload)
		}
	}, func(t *testing.T) {
		for name, in := range sam {
			refuseJSONFrame(t, name, in)
		}
	})
}

// forEachFraming runs the subtests every framing test shares, one per
// frame encoding a peer may send. "bin" (the hand-rolled forms) and "gob"
// (bin's in-frame gob envelope, which every message without a hand-rolled
// form rides) must round-trip through wire.Binary, the one decoder, via
// roundTrip. "json", the retired JSON frame codec, must be refused by it —
// a peer still speaking JSON fails loudly instead of being misread — which
// refuse checks.
func forEachFraming(t *testing.T, roundTrip func(t *testing.T, enc frameEncoder), refuse func(t *testing.T)) {
	codecs := benchCodecs()
	for _, name := range []string{"bin", "gob", "json"} {
		t.Run(name, func(t *testing.T) {
			if name == "json" {
				refuse(t)
				return
			}
			roundTrip(t, codecs[name])
		})
	}
}

// refuseJSONFrame encodes payload as the retired JSON codec framed a
// request and asserts the bin decoder rejects it.
func refuseJSONFrame(t *testing.T, name string, payload any) {
	t.Helper()
	frame, err := json.Marshal(struct {
		From, Method, Type string
		Payload            any
	}{From: "tester", Method: "m", Type: name, Payload: payload})
	if err != nil {
		t.Fatalf("%s: json encode: %v", name, err)
	}
	if req, err := (wire.Binary{}).DecodeRequest(frame); err == nil {
		t.Fatalf("%s: JSON frame decoded as %#v", name, req)
	}
}

// TestChunkedUploadCrossesCodec chunks one model update the way the client
// runtime does (participation stage 4), pushes every chunk through the
// codec, and reassembles on the far side — the wire-level version of the
// server's chunk reassembly test.
func TestChunkedUploadCrossesCodec(t *testing.T) {
	const numParams, chunkSize = 23, 5
	delta := make([]float32, numParams)
	for i := range delta {
		delta[i] = float32(i) * 0.25
	}
	chunks := func(yield func(server.UploadChunk)) {
		for off := 0; off < numParams; off += chunkSize {
			end := off + chunkSize
			if end > numParams {
				end = numParams
			}
			yield(server.UploadChunk{
				TaskID: "t", SessionID: 1, Offset: off,
				Data: delta[off:end], Done: end == numParams, NumExamples: 4,
			})
		}
	}
	forEachFraming(t, func(t *testing.T, enc frameEncoder) {
		got := make([]float32, numParams)
		received, doneSeen := 0, false
		chunks(func(in server.UploadChunk) {
			frame, err := enc.AppendRequest(nil, &wire.Request{From: "c", Method: "upload-chunk", Payload: in})
			if err != nil {
				t.Fatal(err)
			}
			req, err := (wire.Binary{}).DecodeRequest(frame)
			if err != nil {
				t.Fatal(err)
			}
			c := req.Payload.(server.UploadChunk)
			copy(got[c.Offset:], c.Data)
			received += len(c.Data)
			doneSeen = doneSeen || c.Done
		})
		if received != numParams || !doneSeen {
			t.Fatalf("reassembly incomplete: %d/%d params, done=%v", received, numParams, doneSeen)
		}
		if !reflect.DeepEqual(got, delta) {
			t.Fatalf("reassembled delta differs:\n in: %v\nout: %v", delta, got)
		}
	}, func(t *testing.T) {
		chunks(func(in server.UploadChunk) { refuseJSONFrame(t, "upload-chunk", in) })
	})
}

func TestVersionMismatchRejected(t *testing.T) {
	bin := wire.Binary{}
	frame, err := bin.AppendRequest(nil, &wire.Request{From: "a", Method: "m", Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = 99 // corrupt the version byte
	if _, err := bin.DecodeRequest(frame); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version bin frame accepted: %v", err)
	}
}

func TestUnregisteredTypeRejected(t *testing.T) {
	type notRegistered struct{ X int }
	if _, err := (wire.Binary{}).AppendRequest(nil, &wire.Request{Payload: notRegistered{}}); err == nil {
		t.Fatal("unregistered payload encoded")
	}
	if _, err := wire.NewValue("papaya/v9/ghost"); err == nil {
		t.Fatal("unknown type name resolved")
	}
}

func TestNilAnyRoundTrips(t *testing.T) {
	bin := wire.Binary{}
	frame, err := bin.AppendResponse(nil, &wire.Response{Payload: nil})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := bin.DecodeResponse(frame)
	if err != nil || resp.Payload != nil {
		t.Fatalf("nil payload round trip = %v, %v", resp, err)
	}
}
