// The streaming stage: a DEFLATE layer composed over an inner codec's
// payload. Quantization removes precision; flate then removes redundancy
// (runs of identical quantized values, repeated byte patterns), which is
// where the "streaming compression" half of the upload codecs lives.

package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// Streamed composes an inner codec with a DEFLATE byte stage: the frame
// payload is the flate stream of the inner codec's payload. Decoding
// inflates, then delegates, so Streamed inherits the inner codec's
// bit-stability (flate is lossless).
type Streamed struct {
	inner Codec
	name  string
	id    byte
}

// NewStreamed wraps inner with a flate stage under the given registry
// identity.
func NewStreamed(inner Codec, name string, id byte) Streamed {
	return Streamed{inner: inner, name: name, id: id}
}

// Name implements Codec.
func (s Streamed) Name() string { return s.name }

// ID implements Codec.
func (s Streamed) ID() byte { return s.id }

// AppendFloats implements Codec.
func (s Streamed) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	payload, err := s.inner.AppendFloats(nil, src)
	if err != nil {
		return nil, err
	}
	return appendDeflated(dst, payload)
}

// DecodeFloats implements Codec. The inflated size is bounded by what any
// inner float payload of n elements could need (4 bytes/element plus
// scale header), so a flate bomb cannot out-allocate the declared count.
func (s Streamed) DecodeFloats(payload []byte, n int) ([]float32, error) {
	inner, err := inflateCapped(payload, 4*int64(n)+64)
	if err != nil {
		return nil, err
	}
	return s.inner.DecodeFloats(inner, n)
}

// DecodeFloatsInto implements Codec: inflate (same bomb bound), then
// delegate to the inner codec's in-place decode.
func (s Streamed) DecodeFloatsInto(dst []float32, payload []byte) error {
	inner, err := inflateCapped(payload, 4*int64(len(dst))+64)
	if err != nil {
		return err
	}
	return s.inner.DecodeFloatsInto(dst, inner)
}

// AppendUints implements Codec.
func (s Streamed) AppendUints(dst []byte, src []uint32) ([]byte, error) {
	payload, err := s.inner.AppendUints(nil, src)
	if err != nil {
		return nil, err
	}
	return appendDeflated(dst, payload)
}

// DecodeUints implements Codec. The bound covers the widest inner uint
// payload: a varint delta stream costs at most 5 bytes/element.
func (s Streamed) DecodeUints(payload []byte, n int) ([]uint32, error) {
	inner, err := inflateCapped(payload, 5*int64(n)+64)
	if err != nil {
		return nil, err
	}
	return s.inner.DecodeUints(inner, n)
}

// DecodeUintsInto implements Codec; see DecodeFloatsInto.
func (s Streamed) DecodeUintsInto(dst []uint32, payload []byte) error {
	inner, err := inflateCapped(payload, 5*int64(len(dst))+64)
	if err != nil {
		return err
	}
	return s.inner.DecodeUintsInto(dst, inner)
}

func appendDeflated(dst, payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	// BestSpeed: the upload path is hot and quantization already did the
	// heavy lifting; higher levels buy single-digit percents at multiples
	// of the CPU cost.
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(payload); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return append(dst, buf.Bytes()...), nil
}

// inflateCapped inflates at most max bytes and rejects streams that would
// exceed it — the decompression-bomb guard.
func inflateCapped(payload []byte, max int64) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(payload))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, fmt.Errorf("compress: inflating payload: %w", err)
	}
	if int64(len(out)) > max {
		return nil, fmt.Errorf("compress: inflated payload exceeds %d-byte bound", max)
	}
	return out, nil
}

func init() {
	// "streamed" is the negotiable default pairing: int8 quantization (or
	// delta+varint for uints) under a flate stage. "flate" is the lossless
	// streaming-only stage for tasks that cannot tolerate quantization.
	Register(NewStreamed(Quantized{}, "streamed", 4))
	Register(NewStreamed(None{}, "flate", 5))
}
