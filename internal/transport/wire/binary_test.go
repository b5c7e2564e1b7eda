package wire_test

// Micro-benchmarks and allocation assertions for the binary codec's
// hand-rolled forms versus its in-frame gob envelope on the two hottest
// messages (UploadChunk requests, DownloadResponse responses) and on the
// selector->coordinator assign-client pair every check-in makes, plus the
// steady-state allocation contract
// the pooling work exists for: bin encode into a reused buffer allocates
// nothing, bin decode of an UploadChunk stays within 2 allocations
// (the *Request and the payload's interface box) once the vector pools
// are warm.
//
// TestBinBeatsGob is the bench-compare smoke CI runs: it fails the build
// if the hand-rolled forms are ever not faster than the gob envelope on
// the hot messages. It is gated behind PAPAYA_BENCH_COMPARE because comparative
// timing assertions are load-sensitive and do not belong in every local
// `go test` run.

import (
	"os"
	"testing"

	"repro/internal/server"
	"repro/internal/transport/wire"
)

// benchChunk builds a loadtest-shaped upload chunk: one 1024-element raw
// float chunk, the hottest payload on the serving path.
func benchChunk(n int) server.UploadChunk {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i) * 0.001
	}
	return server.UploadChunk{
		TaskID:      "default",
		SessionID:   42,
		Offset:      0,
		Data:        data,
		Done:        true,
		NumExamples: 8,
	}
}

func benchDownload(n int) server.DownloadResponse {
	params := make([]float32, n)
	for i := range params {
		params[i] = float32(i) * 0.01
	}
	return server.DownloadResponse{Params: params, Version: 9}
}

// benchAssign is a checkin-storm-shaped assign-client pair: a device with
// two capabilities, answered with an assignment.
func benchAssign() (*wire.Request, *wire.Response) {
	req := &wire.Request{From: "selector-0", Method: "assign-client", Payload: server.AssignClientRequest{
		ClientID: 90210, Capabilities: []string{"cap-3", "cap-11"},
	}}
	resp := &wire.Response{Payload: server.AssignClientResponse{
		Assigned: true, TaskID: "storm-11", Aggregator: "aggregator-1", Seq: 3,
	}}
	return req, resp
}

// frameEncoder is the encode half both framings under comparison offer;
// wire.Binary decodes either.
type frameEncoder interface {
	AppendRequest(dst []byte, r *wire.Request) ([]byte, error)
	AppendResponse(dst []byte, r *wire.Response) ([]byte, error)
}

// benchCodecs are the two payload encodings of a bin frame: "gob", the
// in-frame gob envelope every message without a hand-rolled form rides,
// and "bin", the hand-rolled forms.
func benchCodecs() map[string]frameEncoder {
	return map[string]frameEncoder{"gob": wire.GobEnvelope{}, "bin": wire.Binary{}}
}

func releasePayload(v any) {
	if lease, ok := v.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

func BenchmarkEncodeUploadChunk(b *testing.B) {
	req := &wire.Request{From: "client-7", Method: "upload-chunk", Payload: benchChunk(1024)}
	for name, codec := range benchCodecs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.AppendRequest(nil, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeUploadChunk(b *testing.B) {
	req := &wire.Request{From: "client-7", Method: "upload-chunk", Payload: benchChunk(1024)}
	for name, codec := range benchCodecs() {
		frame, err := codec.AppendRequest(nil, req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := (wire.Binary{}).DecodeRequest(frame)
				if err != nil {
					b.Fatal(err)
				}
				releasePayload(out.Payload)
			}
		})
	}
}

func BenchmarkEncodeAssignClient(b *testing.B) {
	req, resp := benchAssign()
	for name, codec := range benchCodecs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.AppendRequest(nil, req); err != nil {
					b.Fatal(err)
				}
				if _, err := codec.AppendResponse(nil, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeAssignClient(b *testing.B) {
	req, resp := benchAssign()
	for name, codec := range benchCodecs() {
		reqFrame, err := codec.AppendRequest(nil, req)
		if err != nil {
			b.Fatal(err)
		}
		respFrame, err := codec.AppendResponse(nil, resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (wire.Binary{}).DecodeRequest(reqFrame); err != nil {
					b.Fatal(err)
				}
				if _, err := (wire.Binary{}).DecodeResponse(respFrame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeDownloadResponse(b *testing.B) {
	resp := &wire.Response{Payload: benchDownload(1024)}
	for name, codec := range benchCodecs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.AppendResponse(nil, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeDownloadResponse(b *testing.B) {
	resp := &wire.Response{Payload: benchDownload(1024)}
	for name, codec := range benchCodecs() {
		frame, err := codec.AppendResponse(nil, resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (wire.Binary{}).DecodeResponse(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBinarySteadyStateAllocs pins the pooling contract: with a reused
// frame buffer, bin encodes the hot messages with zero allocations, and a
// bin UploadChunk decode costs at most 2 (the *Request and the payload's
// interface box) because the data vector is leased from vecpool and the
// identifier strings are interned. The assign-client pair decodes in at
// most 3 (request: plus its capability slice) and 2 (response).
func TestBinarySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	bin := wire.Binary{}
	req := &wire.Request{From: "client-7", Method: "upload-chunk", Payload: benchChunk(1024)}

	var buf []byte
	encAllocs := testing.AllocsPerRun(200, func() {
		out, err := bin.AppendRequest(buf[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if encAllocs > 0 {
		t.Errorf("bin append-encode of UploadChunk allocates %.0f times per run, want 0", encAllocs)
	}

	frame, err := bin.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(200, func() {
		out, err := bin.DecodeRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		// The transport's release step: the leased vector goes back to the
		// pool, which is what keeps the next decode allocation-free.
		releasePayload(out.Payload)
	})
	if decAllocs > 2 {
		t.Errorf("bin decode of UploadChunk allocates %.0f times per run, want <= 2", decAllocs)
	}

	resp := &wire.Response{Payload: benchDownload(1024)}
	respAllocs := testing.AllocsPerRun(200, func() {
		out, err := bin.AppendResponse(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if respAllocs > 0 {
		t.Errorf("bin append-encode of DownloadResponse allocates %.0f times per run, want 0", respAllocs)
	}

	areq, aresp := benchAssign()
	if n := testing.AllocsPerRun(200, func() {
		out, err := bin.AppendRequest(buf[:0], areq)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = bin.AppendResponse(out[:0], aresp); err != nil {
			t.Fatal(err)
		}
		buf = out
	}); n > 0 {
		t.Errorf("bin append-encode of the assign-client pair allocates %.0f times per run, want 0", n)
	}
	reqFrame, err := bin.AppendRequest(nil, areq)
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := bin.AppendResponse(nil, aresp)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := bin.DecodeRequest(reqFrame); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("bin decode of AssignClientRequest allocates %.0f times per run, want <= 3", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := bin.DecodeResponse(respFrame); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("bin decode of AssignClientResponse allocates %.0f times per run, want <= 2", n)
	}
}

// TestSessionPathSkipsGob: nothing a device check-in or session sends —
// including the selector->coordinator assign-client hop every check-in
// makes — rides the in-frame gob envelope.
func TestSessionPathSkipsGob(t *testing.T) {
	msgs := []any{
		server.CheckinRequest{ClientID: 1, Capabilities: []string{"lm"}},
		server.CheckinResponse{Accepted: true, TaskID: "t"},
		server.JoinRequest{TaskID: "t", ClientID: 1},
		server.JoinResponse{Accepted: true},
		server.DownloadRequest{TaskID: "t"},
		benchDownload(4),
		server.ReportRequest{TaskID: "t", Compress: []string{"none"}},
		server.ReportResponse{OK: true, ChunkSize: 4096}, // SecAgg off
		benchChunk(4),
		server.UploadResponse{OK: true},
		server.FailRequest{TaskID: "t"},
		server.RouteRequest{TaskID: "t", Method: "upload-chunk", Payload: benchChunk(4)},
		server.TaskInfo{Version: 1},
		server.AssignClientRequest{ClientID: 1, Capabilities: []string{"lm"}},
		server.AssignClientResponse{Assigned: true, TaskID: "t", Aggregator: "agg", Seq: 1},
	}
	for _, m := range msgs {
		out, err := wire.AppendPayloadBinary(nil, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if out[0] == wire.BinTagGob {
			t.Errorf("%T rides the gob envelope", m)
		}
	}
}

// TestBinBeatsGob is the CI bench-compare gate: encode+decode of the two
// hot messages, and of the assign-client pair, must be faster in their
// hand-rolled forms than in the gob envelope, or the fast path has
// regressed into a slow path and the build fails.
func TestBinBeatsGob(t *testing.T) {
	if os.Getenv("PAPAYA_BENCH_COMPARE") == "" {
		t.Skip("set PAPAYA_BENCH_COMPARE=1 to run the codec bench-compare gate")
	}
	codecs := benchCodecs()
	measure := func(codec frameEncoder, req *wire.Request, resp *wire.Response) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				frame, err := codec.AppendRequest(nil, req)
				if err != nil {
					b.Fatal(err)
				}
				out, err := (wire.Binary{}).DecodeRequest(frame)
				if err != nil {
					b.Fatal(err)
				}
				releasePayload(out.Payload)
				rframe, err := codec.AppendResponse(nil, resp)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := (wire.Binary{}).DecodeResponse(rframe); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	assignReq, assignResp := benchAssign()
	pairs := []struct {
		name string
		req  *wire.Request
		resp *wire.Response
	}{
		{"upload-chunk+download", &wire.Request{From: "client-7", Method: "upload-chunk", Payload: benchChunk(1024)},
			&wire.Response{Payload: benchDownload(1024)}},
		{"assign-client", assignReq, assignResp},
	}
	for _, p := range pairs {
		gobNs := measure(codecs["gob"], p.req, p.resp)
		binNs := measure(codecs["bin"], p.req, p.resp)
		t.Logf("%s encode+decode: gob %.0f ns/op, bin %.0f ns/op (%.1fx)", p.name, gobNs, binNs, gobNs/binNs)
		if binNs >= gobNs {
			t.Errorf("%s: bin (%.0f ns/op) is not faster than gob (%.0f ns/op)", p.name, binNs, gobNs)
		}
	}
}

// TestBinaryColdMessagesRideGobFallback: a message without a hand-rolled
// form (TaskReport-bearing AggReport) still crosses the bin codec, via the
// in-frame gob envelope, and an unregistered type still refuses to encode.
func TestBinaryColdMessagesRideGobFallback(t *testing.T) {
	bin := wire.Binary{}
	in := server.AggDirective{DropTasks: []string{"a", "b"}}
	frame, err := bin.AppendRequest(nil, &wire.Request{From: "agg-0", Method: "agg-report", Payload: in})
	if err != nil {
		t.Fatal(err)
	}
	req, err := bin.DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := req.Payload.(server.AggDirective)
	if !ok || len(out.DropTasks) != 2 || out.DropTasks[0] != "a" {
		t.Fatalf("gob-fallback payload mangled: %#v", req.Payload)
	}

	type notRegistered struct{ X int }
	if _, err := bin.AppendRequest(nil, &wire.Request{Payload: notRegistered{X: 1}}); err == nil {
		t.Fatal("unregistered type encoded through the bin fallback")
	}
}

// TestBinaryRejectsHostileFrames: truncated and length-lying frames must
// error without panicking or allocating the declared size.
func TestBinaryRejectsHostileFrames(t *testing.T) {
	bin := wire.Binary{}
	valid, err := bin.AppendRequest(nil, &wire.Request{From: "c", Method: "upload-chunk", Payload: benchChunk(64)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		if _, err := bin.DecodeRequest(valid[:i]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded", i, len(valid))
		}
	}

	hostile := [][]byte{
		nil,
		[]byte("PB"),
		{'P', 'B', 99, 1}, // future version
		{'P', 'B', 1, 7},  // unknown frame kind
		{'P', 'B', 1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f},      // absurd string length
		append([]byte{'P', 'B', 1, 1, 1, 'c', 1, 'm'}, 200), // unregistered message ID
	}
	// A frame whose vector declares far more elements than the body holds.
	lying := append([]byte{'P', 'B', 1, 1, 1, 'c', 1, 'm', 24, 1, 'x', 1, 0, 0, 2 /* flags: data */}, 0xff, 0xff, 0xff, 0x7f)
	hostile = append(hostile, lying)
	for i, frame := range hostile {
		if _, err := bin.DecodeRequest(frame); err == nil {
			t.Fatalf("hostile frame %d decoded: %x", i, frame)
		}
	}
}

// TestBinaryNestedRouteStaysBinary: the selector route envelope around an
// UploadChunk — the actual client wire shape — round-trips with the inner
// concrete type intact.
func TestBinaryNestedRouteStaysBinary(t *testing.T) {
	bin := wire.Binary{}
	in := server.RouteRequest{
		TaskID: "default", Method: "upload-chunk", Payload: benchChunk(128),
	}
	frame, err := bin.AppendRequest(nil, &wire.Request{From: "client-1", Method: "route", Payload: in})
	if err != nil {
		t.Fatal(err)
	}
	req, err := bin.DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := req.Payload.(server.RouteRequest)
	if !ok {
		t.Fatalf("outer payload type %T", req.Payload)
	}
	chunk, ok := rr.Payload.(server.UploadChunk)
	if !ok {
		t.Fatalf("inner payload type %T", rr.Payload)
	}
	if len(chunk.Data) != 128 || !chunk.Done || chunk.TaskID != "default" {
		t.Fatalf("inner chunk mangled: %d elems done=%v", len(chunk.Data), chunk.Done)
	}
	releasePayload(req.Payload)
}
