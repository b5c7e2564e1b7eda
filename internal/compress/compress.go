// Package compress is the wire compression subsystem for the upload path:
// the communication lever PAPAYA's production fleet depends on (Section 7
// discusses the cost of moving model updates from millions of devices;
// compression/quantization is the standard mitigation the paper's
// deployment applies before updates cross the WAN).
//
// The package defines composable codecs behind the Codec interface, a
// registry keyed by stable name and one-byte wire ID, and a self-describing
// frame format, so a receiver can decode any frame produced by any
// registered codec without out-of-band configuration:
//
//	byte 0-1  magic "PZ"
//	byte 2    frame version (FrameVersion)
//	byte 3    codec ID
//	byte 4    element kind (KindFloat32 | KindUint32)
//	uvarint   element count
//	...       codec payload
//
// Two element kinds exist because the upload path has two shapes: plaintext
// uploads move []float32 model deltas (quantizable — the lossy path), and
// SecAgg uploads move []uint32 masked group vectors (which must stay
// bit-exact or unmasking breaks, so their codecs are lossless packers).
//
// Codec choice is a negotiated capability, not a config constant: clients
// offer the codecs they can encode (ReportRequest), the task spec names the
// server's preference, and Negotiate picks the codec for one upload — a
// peer that offers nothing (an older build whose messages predate the
// field) degrades to raw uploads automatically. See docs/DEPLOYMENT.md
// "Upload compression".
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// FrameVersion is the frame layout version; decoders reject others.
const FrameVersion = 1

// Kind tags a frame's element type.
type Kind byte

// Element kinds carried in frame headers.
const (
	// KindFloat32 frames carry model deltas (the plaintext upload path).
	KindFloat32 Kind = 1
	// KindUint32 frames carry masked group vectors (the SecAgg upload
	// path); codecs must be lossless for this kind.
	KindUint32 Kind = 2
)

// maxElements bounds the element count a frame may declare, so a corrupt
// or hostile header cannot make the decoder allocate unbounded memory
// before length validation happens at the application layer.
const maxElements = 1 << 27 // 512 MiB of float32s

// Codec encodes vectors into frame payloads and back. Implementations must
// be stateless and safe for concurrent use; float decoding must be
// bit-stable (the same frame decodes to the same float bits on every run
// and architecture), and uint coding must be lossless.
type Codec interface {
	// Name is the stable registry name ("none", "quantized", ...), the
	// value carried in negotiation messages and -compress flags.
	Name() string
	// ID is the one-byte wire identifier carried in frame headers.
	ID() byte
	// AppendFloats appends the payload encoding of src to dst.
	AppendFloats(dst []byte, src []float32) ([]byte, error)
	// DecodeFloats decodes a payload of n elements.
	DecodeFloats(payload []byte, n int) ([]float32, error)
	// DecodeFloatsInto decodes a payload of exactly len(dst) elements into
	// the caller-provided dst, so hot paths can lease the destination from
	// a pool instead of allocating per frame.
	DecodeFloatsInto(dst []float32, payload []byte) error
	// AppendUints appends the lossless payload encoding of src to dst.
	AppendUints(dst []byte, src []uint32) ([]byte, error)
	// DecodeUints decodes a payload of n elements.
	DecodeUints(payload []byte, n int) ([]uint32, error)
	// DecodeUintsInto decodes a payload of exactly len(dst) elements into
	// the caller-provided dst; see DecodeFloatsInto.
	DecodeUintsInto(dst []uint32, payload []byte) error
}

// --- registry ---

var (
	regMu    sync.RWMutex
	byName   = make(map[string]Codec)
	byID     = make(map[byte]Codec)
	allNames []string
)

// Register adds a codec to the registry. Re-registering a name or ID for a
// different codec panics — both are wire-format bugs, caught at init time.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := byName[c.Name()]; ok && prev != c {
		panic(fmt.Sprintf("compress: name %q already registered", c.Name()))
	}
	if prev, ok := byID[c.ID()]; ok && prev != c {
		panic(fmt.Sprintf("compress: ID %d already registered as %q", c.ID(), prev.Name()))
	}
	byName[c.Name()] = c
	byID[c.ID()] = c
	// Rebuild the sorted name list eagerly, under the write lock: the
	// read paths (Names, ByName's error message) run concurrently from
	// every client goroutine and must never mutate shared state.
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	allNames = names
}

// ByName returns the codec registered under name (a -compress flag value or
// a negotiated capability).
func ByName(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q (want one of %v)", name, namesLocked())
	}
	return c, nil
}

// Names returns every registered codec name, sorted — the capability set a
// build advertises at discovery.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), namesLocked()...)
}

func namesLocked() []string { return allNames }

// Negotiate picks the codec for one upload: the server's preferred codec if
// the client offered it, otherwise "" (raw, uncompressed). A nil or empty
// offer — a peer whose messages predate the capability field — always
// yields "".
func Negotiate(preferred string, offered []string) string {
	if preferred == "" || preferred == "none" {
		return ""
	}
	for _, name := range offered {
		if name == preferred {
			return preferred
		}
	}
	return ""
}

// --- frames ---

var frameMagic = [2]byte{'P', 'Z'}

func appendHeader(dst []byte, c Codec, kind Kind, n int) []byte {
	dst = append(dst, frameMagic[0], frameMagic[1], FrameVersion, c.ID(), byte(kind))
	return binary.AppendUvarint(dst, uint64(n))
}

// parseHeader validates a frame header and returns its codec, kind, element
// count, and payload.
func parseHeader(frame []byte) (Codec, Kind, int, []byte, error) {
	if len(frame) < 6 || frame[0] != frameMagic[0] || frame[1] != frameMagic[1] {
		return nil, 0, 0, nil, errors.New("compress: not a compression frame")
	}
	if frame[2] != FrameVersion {
		return nil, 0, 0, nil, fmt.Errorf("compress: frame version %d, this build speaks %d", frame[2], FrameVersion)
	}
	regMu.RLock()
	c, ok := byID[frame[3]]
	regMu.RUnlock()
	if !ok {
		return nil, 0, 0, nil, fmt.Errorf("compress: unregistered codec ID %d", frame[3])
	}
	kind := Kind(frame[4])
	if kind != KindFloat32 && kind != KindUint32 {
		return nil, 0, 0, nil, fmt.Errorf("compress: unknown element kind %d", frame[4])
	}
	n, read := binary.Uvarint(frame[5:])
	if read <= 0 {
		return nil, 0, 0, nil, errors.New("compress: truncated element count")
	}
	if n > maxElements {
		return nil, 0, 0, nil, fmt.Errorf("compress: frame declares %d elements (max %d)", n, maxElements)
	}
	return c, kind, int(n), frame[5+read:], nil
}

// CompressFloats encodes a float32 vector into a self-describing frame.
func CompressFloats(c Codec, src []float32) ([]byte, error) {
	return AppendCompressedFloats(nil, c, src)
}

// AppendCompressedFloats appends a self-describing float32 frame to dst, so
// a client uploading many chunks can reuse one scratch buffer instead of
// allocating a frame per chunk.
func AppendCompressedFloats(dst []byte, c Codec, src []float32) ([]byte, error) {
	return c.AppendFloats(appendHeader(dst, c, KindFloat32, len(src)), src)
}

// CompressUints encodes a uint32 vector into a self-describing frame.
func CompressUints(c Codec, src []uint32) ([]byte, error) {
	return AppendCompressedUints(nil, c, src)
}

// AppendCompressedUints appends a self-describing uint32 frame to dst; see
// AppendCompressedFloats.
func AppendCompressedUints(dst []byte, c Codec, src []uint32) ([]byte, error) {
	return c.AppendUints(appendHeader(dst, c, KindUint32, len(src)), src)
}

// DecompressFloats decodes a float32 frame produced by any registered
// codec. It rejects frames of the wrong element kind.
func DecompressFloats(frame []byte) ([]float32, error) {
	c, kind, n, payload, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	if kind != KindFloat32 {
		return nil, fmt.Errorf("compress: frame holds kind %d, want float32", kind)
	}
	return c.DecodeFloats(payload, n)
}

// DecompressUints decodes a uint32 frame produced by any registered codec.
// It rejects frames of the wrong element kind.
func DecompressUints(frame []byte) ([]uint32, error) {
	c, kind, n, payload, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	if kind != KindUint32 {
		return nil, fmt.Errorf("compress: frame holds kind %d, want uint32", kind)
	}
	return c.DecodeUints(payload, n)
}

// DecompressFloatsInto decodes a float32 frame into the caller-provided
// dst, which must match the frame's declared element count exactly (the
// caller learns it from FrameInfo before leasing a buffer). The pooled
// counterpart of DecompressFloats on the aggregator's upload hot path.
func DecompressFloatsInto(dst []float32, frame []byte) error {
	c, kind, n, payload, err := parseHeader(frame)
	if err != nil {
		return err
	}
	if kind != KindFloat32 {
		return fmt.Errorf("compress: frame holds kind %d, want float32", kind)
	}
	if n != len(dst) {
		return fmt.Errorf("compress: frame declares %d elements, dst holds %d", n, len(dst))
	}
	return c.DecodeFloatsInto(dst, payload)
}

// DecompressUintsInto decodes a uint32 frame into the caller-provided dst;
// see DecompressFloatsInto.
func DecompressUintsInto(dst []uint32, frame []byte) error {
	c, kind, n, payload, err := parseHeader(frame)
	if err != nil {
		return err
	}
	if kind != KindUint32 {
		return fmt.Errorf("compress: frame holds kind %d, want uint32", kind)
	}
	if n != len(dst) {
		return fmt.Errorf("compress: frame declares %d elements, dst holds %d", n, len(dst))
	}
	return c.DecodeUintsInto(dst, payload)
}

// FrameInfo reports a frame's codec name, element kind, and element count
// without decoding the payload (metering and tests).
func FrameInfo(frame []byte) (name string, kind Kind, n int, err error) {
	c, kind, n, _, err := parseHeader(frame)
	if err != nil {
		return "", 0, 0, err
	}
	return c.Name(), kind, n, nil
}

// --- the identity codec ---

// None is the identity codec: little-endian packed bytes, no compression.
// It still beats gob's variable-length integer encoding on high-entropy
// uint32 vectors (masked SecAgg uploads are uniform random, and gob spends
// ~5 bytes on a random uint32), which is why "none" frames are worth
// shipping at all.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// ID implements Codec.
func (None) ID() byte { return 1 }

// AppendFloats implements Codec: 4 bytes per element, little-endian IEEE
// 754 bits.
func (None) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	return appendFloatsLE(dst, src), nil
}

// DecodeFloats implements Codec.
func (None) DecodeFloats(payload []byte, n int) ([]float32, error) {
	return decodeFloatsLE(payload, n)
}

// DecodeFloatsInto implements Codec.
func (None) DecodeFloatsInto(dst []float32, payload []byte) error {
	return decodeFloatsLEInto(dst, payload)
}

// AppendUints implements Codec: 4 bytes per element, little-endian.
func (None) AppendUints(dst []byte, src []uint32) ([]byte, error) {
	return appendUintsLE(dst, src), nil
}

// DecodeUints implements Codec.
func (None) DecodeUints(payload []byte, n int) ([]uint32, error) {
	return decodeUintsLE(payload, n)
}

// DecodeUintsInto implements Codec.
func (None) DecodeUintsInto(dst []uint32, payload []byte) error {
	return decodeUintsLEInto(dst, payload)
}

func init() {
	Register(None{})
}
