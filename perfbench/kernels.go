package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/compress"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/server"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
	"repro/internal/vecf"
)

// kernelBudget is how long each kernel is timed.
const kernelBudget = 60 * time.Millisecond

// timeOp runs op repeatedly for kernelBudget (at least 8 times) and
// returns its median duration in microseconds. setup runs before each op,
// untimed.
func timeOp(setup func(), op func() error) (float64, error) {
	var ds []time.Duration
	deadline := time.Now().Add(kernelBudget)
	for len(ds) < 8 || time.Now().Before(deadline) {
		if setup != nil {
			setup()
		}
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2]) / 1e3, nil
}

// runKernels times each stage of an upload in isolation, through the
// packages' public functions, on the workload's own chunk size, codec and
// model size. Results are per-layer metrics in microseconds.
func runKernels(wl workload, seed int64) (map[string]float64, error) {
	rnd := rand.New(rand.NewSource(seed))
	vec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rnd.NormFloat64())
		}
		return v
	}
	n := wl.numParams
	chunkN := chunkSize
	if chunkN > n {
		chunkN = n
	}
	chunk := vec(chunkN)
	out := map[string]float64{}
	var err error
	put := func(name string, setup func(), op func() error) {
		if err != nil {
			return
		}
		var us float64
		us, err = timeOp(setup, op)
		if err != nil {
			err = fmt.Errorf("kernel %s: %w", name, err)
		}
		out[name] = us
	}

	codecName := wl.compress
	if codecName == "" {
		codecName = "none"
	}
	codec, cerr := compress.ByName(codecName)
	if cerr != nil {
		return nil, cerr
	}
	var frame []byte
	put("compress.encode_us", nil, func() (e error) {
		frame, e = compress.AppendCompressedFloats(frame[:0], codec, chunk)
		return e
	})
	dst := make([]float32, chunkN)
	put("compress.decode_us", nil, func() error { return compress.DecompressFloatsInto(dst, frame) })

	// The chunk as the client ships it: packed when a codec was
	// negotiated, raw floats otherwise.
	up := server.UploadChunk{TaskID: "default", SessionID: 1, Offset: 0, Done: true, NumExamples: 1}
	if wl.compress != "" {
		up.Packed = append([]byte(nil), frame...)
	} else {
		up.Data = chunk
	}
	var enc []byte
	put("wire.chunk_encode_us", nil, func() error {
		enc = up.AppendBinary(append(enc[:0], up.BinaryID()))
		return nil
	})
	put("wire.chunk_decode_us", nil, func() error {
		v, e := wire.DecodePayloadBinary(enc)
		if e != nil {
			return e
		}
		if lease, ok := v.(wire.BufferLease); ok {
			lease.ReleaseBinaryBuffers()
		}
		return nil
	})

	rt := newPipeRoundTrip()
	put("streamcore.roundtrip_us", nil, func() error { return rt.do(up) })
	rt.close()

	x, src := vec(n), vec(n)
	put("vecf.clip_us", func() { copy(x, src) }, func() error {
		vecf.ClipNorm(x, 1.0)
		return nil
	})
	put("vecf.axpy_us", nil, func() error {
		vecf.AXPY(x, 0.5, src)
		return nil
	})

	buf := buffer.New(n, wl.goal, 8)
	released := make([]float32, n)
	hint := 0
	put("buffer.add_us", func() {
		if buf.Count() >= wl.goal {
			buf.ReleaseIntoStats(released)
		}
	}, func() error {
		hint++
		buf.Add(src, 1, hint)
		return nil
	})
	put("buffer.release_us", func() {
		for buf.Count() < wl.goal {
			hint++
			buf.Add(src, 1, hint)
		}
	}, func() error {
		buf.ReleaseIntoStats(released)
		return nil
	})

	mech := dp.New(dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: uint64(seed) | 1})
	rel := dp.Release{N: wl.goal, TotalWeight: float64(wl.goal), MaxWeight: 1}
	put("dp.noise_release_us", nil, func() error {
		mech.NoiseRelease(released, rel)
		return nil
	})

	params, opt := make([]float32, n), fedopt.DefaultFedAdam()
	put("fedopt.fedadam_step_us", nil, func() error {
		opt.Step(params, released)
		return nil
	})
	return out, err
}

// pipeRoundTrip is a streamcore client Session against streamcore.Serve
// over net.Pipe: the session engine's encode, frame, decode and dispatch
// with no socket underneath.
type pipeRoundTrip struct {
	sess *streamcore.Session
	cli  net.Conn
	done chan struct{}
}

func newPipeRoundTrip() *pipeRoundTrip {
	cli, srv := net.Pipe()
	var counters streamcore.Counters
	rt := &pipeRoundTrip{cli: cli, done: make(chan struct{})}
	go func() {
		defer close(rt.done)
		defer srv.Close()
		streamcore.Serve(streamcore.NewNetConn(srv), streamcore.ServeConfig{
			DefaultCodec: wire.Binary{},
			MaxFrame:     64 << 20,
			Prefix:       "perfbench",
			Counters:     &counters,
			Invoke: func(req *wire.Request) *wire.Response {
				return &wire.Response{Payload: server.UploadResponse{OK: true}}
			},
		})
	}()
	rt.sess = streamcore.NewSession(streamcore.NewNetConn(cli), streamcore.Config{
		Codec:    wire.Binary{},
		Node:     "agg-0",
		Prefix:   "perfbench",
		MaxFrame: 64 << 20,
		Counters: &counters,
	})
	return rt
}

func (rt *pipeRoundTrip) do(c server.UploadChunk) error {
	out, err, _ := rt.sess.Do("client-1", "upload-chunk", c)
	if err != nil {
		return err
	}
	if ur, ok := out.(server.UploadResponse); !ok || !ur.OK {
		return fmt.Errorf("round trip answered %#v", out)
	}
	return nil
}

// close ends the session and waits for the serving goroutine.
func (rt *pipeRoundTrip) close() {
	_ = rt.cli.Close()
	<-rt.done
}
