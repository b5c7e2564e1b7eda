package wire_test

// Fuzz coverage for the stream framing, mirroring FuzzBinaryDecode:
// stream frames arrive from unauthenticated network peers ahead of any
// codec validation, so truncated, length-lying, flag-corrupted, and
// bit-flipped frame sequences must produce errors or clean parses — never
// panics or unbounded allocations. The harness walks a whole input as a
// pipelined sequence (the transport's actual read loop), re-frames every
// payload it accepts, and checks the reconstruction is byte-faithful.

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/transport/wire"
)

// retiredDeflateFlag is stream-frame flag bit 0, the per-frame deflate
// flag of earlier builds. No build sets it now; readers reject it.
const retiredDeflateFlag = 0x1

func FuzzStreamDecode(f *testing.F) {
	// Seed with realistic sequences: a hello followed by codec frames of
	// every shape, frames carrying the retired deflate bit (0x1, now an
	// unknown flag the readers must reject), and deliberately broken ones.
	bin := wire.Binary{}
	reqFrame, err := bin.AppendRequest(nil, &wire.Request{From: "client-1", Method: "upload-chunk", Payload: benchChunk(16)})
	if err != nil {
		f.Fatal(err)
	}
	respFrame, err := bin.AppendResponse(nil, &wire.Response{Payload: benchDownload(8)})
	if err != nil {
		f.Fatal(err)
	}
	seq := wire.AppendStreamFrame(nil, 0, wire.AppendStreamHello(nil, "agg-0"))
	seq = wire.AppendStreamFrame(seq, 0, reqFrame)
	seq = wire.AppendStreamFrame(seq, retiredDeflateFlag, respFrame)
	f.Add(seq)
	// A coalesced no-ack chunk train as the writev path produces it: several
	// NoAck frames back to back in one buffer, one carrying the retired
	// deflate bit among them, closed by the acked frame that flushes the
	// batch.
	batch := wire.AppendStreamFrame(nil, wire.StreamFlagNoAck, reqFrame)
	batch = wire.AppendStreamFrame(batch, wire.StreamFlagNoAck, reqFrame)
	batch = wire.AppendStreamFrame(batch, wire.StreamFlagNoAck|retiredDeflateFlag, respFrame)
	batch = wire.AppendStreamFrame(batch, 0, reqFrame)
	f.Add(batch)
	f.Add(wire.AppendStreamFrame(nil, wire.StreamFlagNoAck, []byte("{}")))
	f.Add(wire.AppendStreamFrame(nil, 0, []byte("{}")))
	f.Add(wire.AppendUvarint(nil, 1<<40))                 // length bomb
	f.Add([]byte{0x80, 0x80, 0x80})                       // truncated varint
	f.Add(append(wire.AppendUvarint(nil, 3), 0xFF, 1, 2)) // unknown flags

	const maxFrame = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		// The in-memory reader and the io.Reader-based one must agree on
		// every frame they accept.
		br := bufio.NewReader(bytes.NewReader(data))
		rest := data
		var scratch []byte
		for {
			flags, payload, r, err := wire.ReadStreamFrame(rest, maxFrame)
			sFlags, sPayload, sc, sErr := wire.ReadStreamFrameFrom(br, scratch, maxFrame)
			scratch = sc
			if (err == nil) != (sErr == nil) {
				// The only tolerated divergence: the slice reader sees a
				// too-short declared length immediately, the stream reader
				// reports it as an unexpected EOF mid-body. Both reject.
				if err == nil || sErr == nil {
					t.Fatalf("readers disagree: slice err=%v stream err=%v", err, sErr)
				}
			}
			if err != nil {
				break
			}
			if flags != sFlags || !bytes.Equal(payload, sPayload) {
				t.Fatalf("readers disagree on frame content")
			}
			// Round-trip property: an accepted frame re-frames to a frame
			// that parses back identically. (Byte equality would be too
			// strict — uvarint length prefixes are not canonical.)
			reframed := wire.AppendStreamFrame(nil, flags, payload)
			rFlags, rPayload, rRest, rErr := wire.ReadStreamFrame(reframed, maxFrame)
			if rErr != nil || rFlags != flags || !bytes.Equal(rPayload, payload) || len(rRest) != 0 {
				t.Fatalf("re-framed frame diverges: %v", rErr)
			}
			// A payload that parses as a hello must re-encode faithfully.
			if node, err := wire.ParseStreamHello(payload); err == nil {
				if !bytes.Equal(wire.AppendStreamHello(nil, node), payload) {
					t.Fatalf("hello round-trip diverges for %q", node)
				}
			}
			rest = r
		}
		// Drain the stream reader to its own terminal state; it must not
		// panic regardless of where the slice reader stopped.
		for {
			var err error
			_, _, scratch, err = wire.ReadStreamFrameFrom(br, scratch, maxFrame)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					_ = err // any error is fine; only panics/hangs are bugs
				}
				break
			}
		}
	})
}
