package wire_test

// Fuzz coverage for the binary decoder: frames arrive from unauthenticated
// network peers, so truncated, length-lying, and bit-flipped inputs must
// produce errors, never panics, unbounded allocations, or pool corruption.
// The harness mirrors the transport's lifecycle, including the
// buffer-lease release, so the fuzzer also exercises the pool discipline.

import (
	"testing"

	"repro/internal/server"
	"repro/internal/transport/wire"
)

func FuzzBinaryDecode(f *testing.F) {
	bin := wire.Binary{}

	// Seed with real frames of every hot shape so mutation starts from
	// deep in the format, plus a few deliberately broken ones.
	seedReqs := []*wire.Request{
		{From: "client-1", Method: "upload-chunk", Payload: benchChunk(32)},
		{From: "client-1", Method: "route", Payload: server.RouteRequest{
			TaskID: "t", Method: "upload-chunk", Payload: benchChunk(8),
		}},
		{From: "sel-0", Method: "checkin", Payload: server.CheckinRequest{
			ClientID: 7, Capabilities: []string{"lm"},
		}},
		{From: "c", Method: "report", Payload: server.ReportRequest{
			TaskID: "t", SessionID: 3, Compress: []string{"quantized", "none"},
		}},
		{From: "c", Method: "m", Payload: "a-string"},
		{From: "c", Method: "m", Payload: nil},
		{From: "agg-0", Method: "agg-report", Payload: server.AggDirective{DropTasks: []string{"x"}}},
	}
	for _, r := range seedReqs {
		frame, err := bin.AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	respFrame, err := bin.AppendResponse(nil, &wire.Response{Payload: benchDownload(16)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(respFrame)
	f.Add([]byte{'P', 'B', 1, 1})
	f.Add([]byte{'P', 'B', 1, 1, 0, 0, 24, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, frame []byte) {
		if req, err := bin.DecodeRequest(frame); err == nil {
			// Round-trip property: whatever decoded must re-encode.
			if _, err := bin.AppendRequest(nil, req); err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			releasePayload(req.Payload)
		}
		if resp, err := bin.DecodeResponse(frame); err == nil {
			if _, err := bin.AppendResponse(nil, resp); err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
		}
	})
}
