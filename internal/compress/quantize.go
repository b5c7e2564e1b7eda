// Linear quantization for the plaintext upload path and delta+varint
// packing for the SecAgg masked path. The float side follows the
// internal/fixedpoint recipe (Appendix D): scale, round to the nearest
// integer, clamp to the representable range — but with a per-frame scale
// derived from the frame's own max magnitude instead of a fleet-wide
// constant, since a model delta's range varies per client and per round.
//
// Determinism contract (regression-tested): quantization uses only
// individually rounded IEEE 754 float64 operations (max, divide, multiply,
// math.Round), never fused or reassociated compound expressions, so a
// compress/decompress cycle produces identical bits on every run and
// architecture. This matters because quantized deltas feed the aggregation
// pipeline whose bit-for-bit reproducibility PR 1 established.

package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Quantized is the int8 linear-quantization codec, the default compression
// lever: model deltas ship at 1 byte per element plus an 8-byte per-frame
// scale (~4x smaller than raw float32, more after the streamed stage).
// The uint path is the lossless delta+varint packer.
type Quantized struct{}

// Name implements Codec.
func (Quantized) Name() string { return "quantized" }

// ID implements Codec.
func (Quantized) ID() byte { return 2 }

// AppendFloats implements Codec with 8-bit quantization.
func (Quantized) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	return appendQuantized(dst, src, 8)
}

// DecodeFloats implements Codec.
func (Quantized) DecodeFloats(payload []byte, n int) ([]float32, error) {
	return decodeQuantized(payload, n, 8)
}

// DecodeFloatsInto implements Codec.
func (Quantized) DecodeFloatsInto(dst []float32, payload []byte) error {
	return decodeQuantizedInto(dst, payload, 8)
}

// AppendUints implements Codec via delta+varint packing.
func (Quantized) AppendUints(dst []byte, src []uint32) ([]byte, error) {
	return appendDeltaVarint(dst, src), nil
}

// DecodeUints implements Codec.
func (Quantized) DecodeUints(payload []byte, n int) ([]uint32, error) {
	return decodeDeltaVarint(payload, n)
}

// DecodeUintsInto implements Codec.
func (Quantized) DecodeUintsInto(dst []uint32, payload []byte) error {
	return decodeDeltaVarintInto(dst, payload)
}

// Quantized16 is the int16 variant for tasks that need more fidelity than
// 8 bits: 2 bytes per element (~2x smaller than raw), quantization error
// bounded by maxabs/32767 per element.
type Quantized16 struct{}

// Name implements Codec.
func (Quantized16) Name() string { return "quantized16" }

// ID implements Codec.
func (Quantized16) ID() byte { return 3 }

// AppendFloats implements Codec with 16-bit quantization.
func (Quantized16) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	return appendQuantized(dst, src, 16)
}

// DecodeFloats implements Codec.
func (Quantized16) DecodeFloats(payload []byte, n int) ([]float32, error) {
	return decodeQuantized(payload, n, 16)
}

// DecodeFloatsInto implements Codec.
func (Quantized16) DecodeFloatsInto(dst []float32, payload []byte) error {
	return decodeQuantizedInto(dst, payload, 16)
}

// AppendUints implements Codec via delta+varint packing.
func (Quantized16) AppendUints(dst []byte, src []uint32) ([]byte, error) {
	return appendDeltaVarint(dst, src), nil
}

// DecodeUints implements Codec.
func (Quantized16) DecodeUints(payload []byte, n int) ([]uint32, error) {
	return decodeDeltaVarint(payload, n)
}

// DecodeUintsInto implements Codec.
func (Quantized16) DecodeUintsInto(dst []uint32, payload []byte) error {
	return decodeDeltaVarintInto(dst, payload)
}

// --- float quantization ---

// appendQuantized writes [8-byte float64 inverse scale][n little-endian
// intB values]. The inverse scale (maxabs/qmax) is stored rather than the
// forward scale so decoding is a single exactly-rounded multiply.
func appendQuantized(dst []byte, src []float32, bits int) ([]byte, error) {
	qmax := float64(int64(1)<<(bits-1)) - 1 // 127 or 32767
	maxabs := 0.0
	for _, v := range src {
		a := math.Abs(float64(v))
		// Non-finite values cannot set the scale; they clamp at encode
		// time instead (NaN to 0, infinities to the range edge).
		if a > maxabs && !math.IsInf(a, 1) {
			maxabs = a
		}
	}
	var inv float64
	if maxabs > 0 {
		inv = maxabs / qmax
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(inv))
	var scale float64
	if inv > 0 {
		scale = qmax / maxabs
	}
	for _, v := range src {
		f := float64(v)
		var q int64
		switch {
		case math.IsNaN(f):
			q = 0
		case f > maxabs:
			q = int64(qmax)
		case f < -maxabs:
			q = -int64(qmax)
		default:
			q = int64(math.Round(f * scale))
		}
		if bits == 8 {
			dst = append(dst, byte(int8(q)))
		} else {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(int16(q)))
		}
	}
	return dst, nil
}

func decodeQuantized(payload []byte, n, bits int) ([]float32, error) {
	out := make([]float32, n)
	if err := decodeQuantizedInto(out, payload, bits); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeQuantizedInto(dst []float32, payload []byte, bits int) error {
	n := len(dst)
	width := bits / 8
	if len(payload) != 8+n*width {
		return fmt.Errorf("compress: quantized payload is %d bytes, want %d for %d elements",
			len(payload), 8+n*width, n)
	}
	inv := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	if math.IsNaN(inv) || math.IsInf(inv, 0) || inv < 0 {
		return fmt.Errorf("compress: invalid quantization scale %g", inv)
	}
	body := payload[8:]
	for i := range dst {
		var q int64
		if bits == 8 {
			q = int64(int8(body[i]))
		} else {
			q = int64(int16(binary.LittleEndian.Uint16(body[i*2:])))
		}
		dst[i] = float32(float64(q) * inv)
	}
	return nil
}

// --- lossless packers ---

// Delta+varint packing: zigzag-encode the difference between consecutive
// elements and varint-pack it. Structured uint vectors (sorted indices,
// slowly varying counters) shrink dramatically; masked SecAgg vectors are
// uniform random and would *grow* (~5 bytes per element), so the encoder
// measures both and falls back to 4-byte little-endian packing when delta
// coding loses — the leading mode byte records the choice.
const (
	uintModeRaw   = 0
	uintModeDelta = 1
)

func appendDeltaVarint(dst []byte, src []uint32) []byte {
	// Bail out to raw packing the moment the delta stream can no longer
	// win: on uniform-random (masked) input — the common case on this
	// path — that happens within the first few elements, skipping most of
	// a wasted encoding pass and its scratch allocation.
	limit := 4 * len(src)
	delta := make([]byte, 0, min(5*len(src), limit+binary.MaxVarintLen32))
	prev := uint32(0)
	for _, v := range src {
		d := int64(int32(v - prev)) // wrapping difference, sign-interpreted
		delta = binary.AppendVarint(delta, d)
		prev = v
		if len(delta) >= limit {
			dst = append(dst, uintModeRaw)
			return appendUintsLE(dst, src)
		}
	}
	dst = append(dst, uintModeDelta)
	return append(dst, delta...)
}

func decodeDeltaVarint(payload []byte, n int) ([]uint32, error) {
	out := make([]uint32, n)
	if err := decodeDeltaVarintInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeDeltaVarintInto(dst []uint32, payload []byte) error {
	n := len(dst)
	if len(payload) < 1 {
		return fmt.Errorf("compress: empty uint payload")
	}
	mode, body := payload[0], payload[1:]
	switch mode {
	case uintModeRaw:
		return decodeUintsLEInto(dst, body)
	case uintModeDelta:
		// Feasibility before decoding: every varint delta costs at least
		// one byte, so a tiny hostile payload cannot declare a huge count.
		if n > len(body) {
			return fmt.Errorf("compress: delta stream of %d bytes cannot hold %d elements", len(body), n)
		}
		prev := uint32(0)
		for i := range dst {
			d, read := binary.Varint(body)
			if read <= 0 {
				return fmt.Errorf("compress: truncated delta stream at element %d", i)
			}
			body = body[read:]
			prev += uint32(int32(d))
			dst[i] = prev
		}
		if len(body) != 0 {
			return fmt.Errorf("compress: %d trailing bytes after delta stream", len(body))
		}
		return nil
	default:
		return fmt.Errorf("compress: unknown uint packing mode %d", mode)
	}
}

// Little-endian packing shared by None, the quantized raw fallback, and
// Flate's inner layer.

func appendFloatsLE(dst []byte, src []float32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

func decodeFloatsLE(payload []byte, n int) ([]float32, error) {
	out := make([]float32, n)
	if err := decodeFloatsLEInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeFloatsLEInto(dst []float32, payload []byte) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("compress: payload is %d bytes, want %d for %d float32s", len(payload), 4*len(dst), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return nil
}

func appendUintsLE(dst []byte, src []uint32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

func decodeUintsLE(payload []byte, n int) ([]uint32, error) {
	out := make([]uint32, n)
	if err := decodeUintsLEInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeUintsLEInto(dst []uint32, payload []byte) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("compress: payload is %d bytes, want %d for %d uint32s", len(payload), 4*len(dst), len(dst))
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(payload[i*4:])
	}
	return nil
}

func init() {
	Register(Quantized{})
	Register(Quantized16{})
}
