package compress_test

// Fuzz coverage for compression-frame decode. Packed UploadChunk payloads
// arrive from network peers, so a truncated, length-lying, bomb-shaped or
// bit-flipped frame must produce an error or a clean decode — never a
// panic or an allocation beyond the declared element count. The harness
// decodes in the aggregator's order: FrameInfo first, the element count
// bounded as the task's model size bounds it, then the pooled
// Decompress*Into into a buffer of exactly that count.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/compress"
)

// fuzzMaxElems stands in for the aggregator's model-size bound on the
// declared element count.
const fuzzMaxElems = 1 << 16

func FuzzFrameDecode(f *testing.F) {
	// One float frame and one uint frame per registered codec, so every
	// decoder starts from a valid frame (and tier-1 runs each as a seed).
	for _, name := range compress.Names() {
		c, err := compress.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		ff, err := compress.CompressFloats(c, testFloats(64))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ff)
		uf, err := compress.CompressUints(c, testUints(64))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uf)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		name, kind, n, err := compress.FrameInfo(frame)
		if err != nil || n > fuzzMaxElems {
			return
		}
		switch kind {
		case compress.KindFloat32:
			vals := make([]float32, n)
			if err := compress.DecompressFloatsInto(vals, frame); err != nil {
				return
			}
			// Float decode is bit-stable: the allocating path agrees.
			again, err := compress.DecompressFloats(frame)
			if err != nil || len(again) != n {
				t.Fatalf("DecompressFloats disagrees with the Into path: %v", err)
			}
			for i := range vals {
				if math.Float32bits(vals[i]) != math.Float32bits(again[i]) {
					t.Fatalf("element %d decodes to %v and %v", i, vals[i], again[i])
				}
			}
		case compress.KindUint32:
			vals := make([]uint32, n)
			if err := compress.DecompressUintsInto(vals, frame); err != nil {
				return
			}
			// Uint coding is lossless: what decoded re-encodes and decodes
			// back unchanged under the same codec.
			c, err := compress.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			re, err := compress.CompressUints(c, vals)
			if err != nil {
				t.Fatalf("decoded uints do not re-encode: %v", err)
			}
			back, err := compress.DecompressUints(re)
			if err != nil || !slices.Equal(back, vals) {
				t.Fatalf("uint round trip diverges: %v", err)
			}
		default:
			t.Fatalf("FrameInfo accepted unknown kind %d", kind)
		}
	})
}
