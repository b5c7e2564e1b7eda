package httptransport_test

// Wire-level pins for the one wire: calls cross as bin frames over the
// stream route toward any peer, fabrics configured differently still
// interoperate, and the retired per-call POST routes stay unserved.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
)

// TestBinUsedTowardAdvertisingPeers: after discovery records a peer, calls
// toward it arrive as bin request frames on its stream route. The peer is a
// hand-rolled stub that decodes exactly what crosses the wire, pinning a
// bytes-on-the-wire fact a real Fabric hides.
func TestBinUsedTowardAdvertisingPeers(t *testing.T) {
	var (
		mu      sync.Mutex
		methods []string
	)
	mux := http.NewServeMux()
	stub := httptest.NewServer(mux)
	t.Cleanup(stub.Close) // after the fabric closes its streams
	mux.HandleFunc("GET /papaya/v2/nodes", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(streamcore.Doc{BaseURL: stub.URL, Nodes: []string{"agg-stub"}})
	})
	mux.HandleFunc("POST /papaya/v2/stream/{node}", func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		br := bufio.NewReader(r.Body)
		var scratch []byte
		for {
			flags, payload, grown, err := wire.ReadStreamFrameFrom(br, scratch, 1<<20)
			scratch = grown
			if err != nil {
				return // the caller closed its end
			}
			req, err := wire.Binary{}.DecodeRequest(payload)
			if err != nil {
				t.Errorf("stub: request frame is not bin: %v", err)
				return
			}
			mu.Lock()
			methods = append(methods, req.Method)
			mu.Unlock()
			if flags&wire.StreamFlagNoAck != 0 {
				continue
			}
			resp, err := wire.Binary{}.AppendResponse(nil, &wire.Response{
				Payload: server.UploadResponse{OK: true, Reason: req.Method},
			})
			if err != nil {
				t.Errorf("stub encode: %v", err)
				return
			}
			if _, err := w.Write(wire.AppendStreamFrame(nil, 0, resp)); err != nil {
				return
			}
			_ = rc.Flush()
		}
	})

	f := newFabric(t)
	if _, err := f.Discover(stub.URL); err != nil {
		t.Fatal(err)
	}
	resp, err := f.Call("client", "agg-stub", "upload-chunk", server.UploadChunk{
		TaskID: "t", SessionID: 1, Data: []float32{1, 2, 3}, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur, ok := resp.(server.UploadResponse); !ok || !ur.OK || ur.Reason != "upload-chunk" {
		t.Fatalf("stub response mangled: %#v", resp)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(methods) != 1 || methods[0] != "upload-chunk" {
		t.Fatalf("stub decoded %v, want one upload-chunk bin frame", methods)
	}
}

// TestGobServerServesBinCaller: a fabric left at the default codec setting
// (which once meant gob) serves a caller configured with the deprecated
// Codec "bin" — both speak the one wire, so the settings interoperate.
func TestGobServerServesBinCaller(t *testing.T) {
	defaultServer := newFabric(t)
	defaultServer.Register("agg", echoHandler)

	binClient, err := httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Codec: "bin", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = binClient.Close() })
	if _, err := binClient.Discover(defaultServer.BaseURL()); err != nil {
		t.Fatal(err)
	}
	resp, err := binClient.Call("tester", "agg", "join", server.JoinRequest{TaskID: "t", ClientID: 42})
	if err != nil {
		t.Fatal(err)
	}
	jr, ok := resp.(server.JoinResponse)
	if !ok || !jr.Accepted || jr.SessionID != 42 || jr.Version != 7 {
		t.Fatalf("bin caller -> default server round trip mangled: %#v", resp)
	}
}

// postRetired POSTs body to a retired per-call route of f and returns the
// response status and Content-Encoding.
func postRetired(t *testing.T, f *httptransport.Fabric, path string, body []byte, header map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, f.BaseURL()+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Content-Encoding")
}

// TestBinRejectedOnV1Route: a bin frame POSTed to the retired per-call
// routes reaches no handler — /papaya/v1/rpc and /papaya/v2/rpc are no
// longer served at all.
func TestBinRejectedOnV1Route(t *testing.T) {
	f := newFabric(t)
	dispatched := false
	f.Register("agg", func(string, any) (any, error) {
		dispatched = true
		return nil, nil
	})
	frame, err := wire.Binary{}.AppendRequest(nil, &wire.Request{From: "c", Method: "m", Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/papaya/v1/rpc/agg", "/papaya/v2/rpc/agg"} {
		if status, _ := postRetired(t, f, path, frame, nil); status != http.StatusNotFound {
			t.Fatalf("bin frame on %s returned HTTP %d, want 404", path, status)
		}
	}
	if dispatched {
		t.Fatal("a frame POSTed to a retired route reached the handler")
	}
}

// TestV1RouteIgnoresCompressionHeaders: a generic HTTP client asking for
// compression (Accept-Encoding, as curl --compressed sends) on the retired
// /v1 route gets a plain 404 — no encoded body, no dispatch.
func TestV1RouteIgnoresCompressionHeaders(t *testing.T) {
	f := newFabric(t)
	f.Register("agg", echoHandler)
	status, enc := postRetired(t, f, "/papaya/v1/rpc/agg", []byte("x"), map[string]string{
		"Accept-Encoding":  "gzip, deflate",
		"Content-Encoding": "deflate",
	})
	if status != http.StatusNotFound {
		t.Fatalf("retired /v1 route returned HTTP %d, want 404", status)
	}
	if enc != "" {
		t.Fatalf("404 from the retired route has Content-Encoding %q", enc)
	}
}
