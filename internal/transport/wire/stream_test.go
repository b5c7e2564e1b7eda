package wire_test

// Round-trip and bound tests for the stream framing, plus an allocation
// check on the reader's steady state (a pipelined session must not
// allocate per frame once its scratch is warm).

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/transport/wire"
)

func TestStreamFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("x"),
		[]byte("hello stream"),
		bytes.Repeat([]byte("abcd"), 4096),
		{},
	}
	var buf []byte
	for i, p := range payloads {
		flags := byte(0)
		if i%2 == 1 {
			flags = wire.StreamFlagNoAck
		}
		buf = wire.AppendStreamFrame(buf, flags, p)
	}
	// In-memory reader.
	rest := buf
	for i, p := range payloads {
		flags, payload, r, err := wire.ReadStreamFrame(rest, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wantFlags := byte(0)
		if i%2 == 1 {
			wantFlags = wire.StreamFlagNoAck
		}
		if flags != wantFlags || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: flags=%d payload %d bytes", i, flags, len(payload))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// Streaming reader.
	br := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	for i, p := range payloads {
		var payload []byte
		var err error
		_, payload, scratch, err = wire.ReadStreamFrameFrom(br, scratch, 1<<20)
		if err != nil {
			t.Fatalf("streamed frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("streamed frame %d mismatch", i)
		}
	}
	if _, _, _, err := wire.ReadStreamFrameFrom(br, scratch, 1<<20); err != io.EOF {
		t.Fatalf("end of stream error = %v, want io.EOF", err)
	}
}

func TestStreamFrameBounds(t *testing.T) {
	// A declared length beyond max must be rejected before any read.
	huge := wire.AppendUvarint(nil, 1<<40)
	if _, _, _, err := wire.ReadStreamFrame(huge, 1<<20); err == nil {
		t.Fatal("oversized declared length accepted")
	}
	br := bufio.NewReader(bytes.NewReader(huge))
	if _, _, _, err := wire.ReadStreamFrameFrom(br, nil, 1<<20); err == nil {
		t.Fatal("oversized declared length accepted by reader")
	}
	// Truncated mid-frame: io.ErrUnexpectedEOF, not a clean EOF.
	frame := wire.AppendStreamFrame(nil, 0, []byte("truncate me"))
	br = bufio.NewReader(bytes.NewReader(frame[:len(frame)-3]))
	if _, _, _, err := wire.ReadStreamFrameFrom(br, nil, 1<<20); err == nil || err == io.EOF {
		t.Fatalf("truncated frame error = %v", err)
	}
	// Unknown flag bits are a version break, rejected loudly.
	bad := wire.AppendUvarint(nil, 2)
	bad = append(bad, 0x80, 'x')
	if _, _, _, err := wire.ReadStreamFrame(bad, 1<<20); err == nil {
		t.Fatal("unknown flags accepted")
	}
	// The retired deflate bit is unknown too.
	deflated := wire.AppendStreamFrame(nil, retiredDeflateFlag, []byte("x"))
	if _, _, _, err := wire.ReadStreamFrame(deflated, 1<<20); err == nil {
		t.Fatal("retired deflate flag accepted")
	}
	br = bufio.NewReader(bytes.NewReader(deflated))
	if _, _, _, err := wire.ReadStreamFrameFrom(br, nil, 1<<20); err == nil {
		t.Fatal("retired deflate flag accepted by reader")
	}
	// Empty frame (no flags byte) is malformed.
	if _, _, _, err := wire.ReadStreamFrame(wire.AppendUvarint(nil, 0), 1<<20); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestStreamHelloRoundTrip(t *testing.T) {
	for _, node := range []string{"agg-0", "selector-a", "_fabric", ""} {
		hello := wire.AppendStreamHello(nil, node)
		got, err := wire.ParseStreamHello(hello)
		if err != nil {
			t.Fatalf("%q: %v", node, err)
		}
		if got != node {
			t.Fatalf("hello round-trip %q -> %q", node, got)
		}
	}
	if _, err := wire.ParseStreamHello([]byte("PSH")); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, err := wire.ParseStreamHello(append(wire.AppendStreamHello(nil, "n"), 'x')); err == nil {
		t.Fatal("trailing bytes after hello accepted")
	}
}

// TestStreamReaderSteadyStateAllocs: once the scratch buffer has grown to
// frame size, reading a pipelined sequence of frames allocates nothing.
func TestStreamReaderSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 4096)
	frame := wire.AppendStreamFrame(nil, 0, payload)
	many := bytes.Repeat(frame, 64)
	reader := bytes.NewReader(many)
	br := bufio.NewReaderSize(reader, 32<<10)
	scratch := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(32, func() {
		reader.Seek(0, io.SeekStart)
		br.Reset(reader)
		for {
			var err error
			_, _, scratch, err = wire.ReadStreamFrameFrom(br, scratch, 1<<20)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state stream read costs %.1f allocs per 64 frames, want 0", allocs)
	}
}
