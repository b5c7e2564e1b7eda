// Stream framing for the session fabrics. PAPAYA's client<->aggregator
// session is a long-lived stream (Huba et al., MLSys 2022, Section 6.1's
// virtual session), so a client opens ONE connection per session and
// pipelines check-in -> join -> chunked upload -> report over it as
// length-prefixed frames.
//
// A stream frame is:
//
//	uvarint(1 + len(payload)) | flags byte | payload bytes
//
// where payload is one complete Binary request or response frame and flags
// carries per-frame options (today only StreamFlagNoAck). The framing is
// shared by both networked backends: the HTTP transport's stream route
// frames its long-lived POST bodies with it, and the raw-TCP fabric
// (internal/transport/tcptransport) frames everything with it, prefixed by
// one StreamHello naming the target node.

package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// StreamFlagNoAck marks a request frame whose sender does not wait for a
// response: the server answers it only when the call fails (and then on the
// next acknowledged frame, keeping request/response framing in sync). A
// sender uses it only toward peers that advertised Capabilities.AckElide
// (versioning rule 4). Bit 0, a per-frame deflate flag in earlier builds,
// is unassigned: a frame carrying it is rejected as unknown.
const StreamFlagNoAck = 1 << 1

// streamKnownFlags masks the flag bits this build understands; a frame
// carrying unknown flags is rejected (versioning rule 1 — fail loudly
// instead of misinterpreting a future format).
const streamKnownFlags = StreamFlagNoAck

// AppendStreamFrame appends one length-prefixed stream frame carrying
// payload with the given flags. The payload is copied; callers reuse their
// encode scratch across frames.
func AppendStreamFrame(dst []byte, flags byte, payload []byte) []byte {
	dst = AppendUvarint(dst, uint64(1+len(payload)))
	dst = append(dst, flags)
	return append(dst, payload...)
}

// ReadStreamFrame parses one stream frame from the front of b, returning
// the flags, the payload (aliasing b), and the remaining bytes. max bounds
// the declared payload length so a hostile length prefix cannot buy a huge
// read downstream.
func ReadStreamFrame(b []byte, max int) (flags byte, payload, rest []byte, err error) {
	n64, rest, err := ReadUvarint(b)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wire: stream frame length: %w", err)
	}
	if n64 == 0 {
		return 0, nil, nil, errors.New("wire: empty stream frame")
	}
	if n64 > uint64(max)+1 {
		return 0, nil, nil, fmt.Errorf("wire: stream frame of %d bytes exceeds limit %d", n64-1, max)
	}
	if n64 > uint64(len(rest)) {
		return 0, nil, nil, errors.New("wire: stream frame length exceeds input")
	}
	n := int(n64)
	flags = rest[0]
	if flags&^byte(streamKnownFlags) != 0 {
		return 0, nil, nil, fmt.Errorf("wire: unknown stream frame flags %#x", flags)
	}
	return flags, rest[1:n], rest[n:], nil
}

// ReadStreamFrameFrom reads one stream frame from br into scratch (growing
// it as needed) and returns the flags, the payload (aliasing the returned
// scratch), and the possibly-grown scratch for the caller to reuse on the
// next read — the zero-allocation steady state of a pipelined session. max
// bounds the declared payload length. io.EOF before the first byte is a
// clean end of stream; a partial frame surfaces as io.ErrUnexpectedEOF.
func ReadStreamFrameFrom(br *bufio.Reader, scratch []byte, max int) (flags byte, payload, newScratch []byte, err error) {
	n64, err := readUvarintFrom(br)
	if err != nil {
		return 0, nil, scratch, err
	}
	if n64 == 0 {
		return 0, nil, scratch, errors.New("wire: empty stream frame")
	}
	if n64 > uint64(max)+1 {
		return 0, nil, scratch, fmt.Errorf("wire: stream frame of %d bytes exceeds limit %d", n64-1, max)
	}
	n := int(n64)
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(br, scratch); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, scratch, fmt.Errorf("wire: stream frame body: %w", err)
	}
	flags = scratch[0]
	if flags&^byte(streamKnownFlags) != 0 {
		return 0, nil, scratch, fmt.Errorf("wire: unknown stream frame flags %#x", flags)
	}
	return flags, scratch[1:n], scratch, nil
}

// readUvarintFrom reads a uvarint byte by byte, mapping a truncated varint
// after at least one byte to io.ErrUnexpectedEOF (a dead peer mid-frame)
// while letting a clean io.EOF before any byte mean end of stream.
func readUvarintFrom(br *bufio.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, errors.New("wire: stream frame length varint overflows")
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
	}
}

// Stream hello: the first frame on a raw-TCP stream names the node every
// subsequent request on the connection is addressed to (the HTTP streaming
// route carries the node in the URL path instead). The hello payload is
// "PSH" + Version + length-prefixed node name.
var streamHelloMagic = []byte{'P', 'S', 'H', Version}

// AppendStreamHello appends a hello payload opening a stream to node.
// Callers wrap it in a stream frame like any other payload.
func AppendStreamHello(dst []byte, node string) []byte {
	dst = append(dst, streamHelloMagic...)
	return AppendString(dst, node)
}

// ParseStreamHello parses a hello payload back into the target node name.
func ParseStreamHello(b []byte) (string, error) {
	if len(b) < len(streamHelloMagic) || b[0] != 'P' || b[1] != 'S' || b[2] != 'H' {
		return "", errors.New("wire: not a stream hello")
	}
	if b[3] != Version {
		return "", fmt.Errorf("wire: stream hello version %d, this build speaks %d", b[3], Version)
	}
	node, rest, err := ReadString(b[len(streamHelloMagic):])
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", errors.New("wire: trailing bytes after stream hello")
	}
	return node, nil
}
