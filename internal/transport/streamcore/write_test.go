package streamcore_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/transport/streamcore"
)

// TestNetConnWriteFramesAllocs pins the write path: a one-frame and a
// three-frame batch go out without a heap allocation per call, and the
// bytes arrive in order.
func TestNetConnWriteFramesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	cli, srv := net.Pipe()
	var got bytes.Buffer
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(&got, srv)
	}()
	nc := streamcore.NewNetConn(cli)

	a, b, c := []byte("one"), []byte("two-"), []byte("three")
	bufs := make(net.Buffers, 3)
	single := testing.AllocsPerRun(100, func() {
		bufs[0] = a
		if _, err := nc.WriteFrames(bufs[:1]); err != nil {
			t.Fatal(err)
		}
	})
	batch := testing.AllocsPerRun(100, func() {
		bufs[0], bufs[1], bufs[2] = a, b, c
		if _, err := nc.WriteFrames(bufs); err != nil {
			t.Fatal(err)
		}
	})
	for i, f := range bufs {
		if f != nil {
			t.Errorf("bufs[%d] still holds a frame after the write", i)
		}
	}
	_ = nc.Close()
	<-drained

	if single != 0 || batch != 0 {
		t.Errorf("WriteFrames allocates %.0f times per one-frame write and %.0f per three-frame write, want 0", single, batch)
	}
	// AllocsPerRun makes one warm-up call before its measured runs.
	want := bytes.Repeat([]byte("one"), 101)
	want = append(want, bytes.Repeat([]byte("onetwo-three"), 101)...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("far end read %d bytes, want %d in write order", got.Len(), len(want))
	}
}
