package streamcore

import (
	"net"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ServeConfig parameterizes the server half of the engine for the fabric
// that owns the connection.
type ServeConfig struct {
	// DefaultCodec selects nothing: every frame is wire.Binary.
	//
	// Deprecated: the field is inert and kept only so existing callers
	// compile.
	DefaultCodec wire.Binary
	// MaxFrame bounds one request payload.
	MaxFrame int
	// Prefix is the owning fabric's error prefix.
	Prefix string
	// Counters receives the server-side accounting (acks elided).
	Counters *Counters
	// Invoke runs one decoded request through the fabric's fault-check
	// dispatch, so fault parity holds frame by frame.
	Invoke func(req *wire.Request) *wire.Response
}

// Serve runs one inbound streaming session: pipelined request frames
// answered in order by response frames, with buffer leases released in
// the per-call order (response frame fully encoded, then response leases,
// then request leases).
//
// Frames carrying wire.StreamFlagNoAck are the ack-elision path: a
// successful response whose payload opts in (transport.AckElidable) is
// suppressed entirely. The first non-suppressible response to a no-ack
// frame is encoded immediately and *held*; subsequent no-ack frames are
// drained without decode or dispatch (their sender's protocol state is
// already failed), and the held frame answers the session's next
// acknowledged call in place of invoking it — one response per
// acknowledged frame, always, so the two ends can never disagree about
// framing.
//
// Serve returns when the peer closes its end (the session's natural close
// signal) or the connection breaks; the caller owns conn cleanup.
func Serve(conn Conn, cfg ServeConfig) {
	var out []byte
	var held []byte // encoded response to the first failed no-ack call
	for {
		flags, payload, err := conn.ReadFrame(cfg.MaxFrame)
		if err != nil {
			return // io.EOF: clean close; anything else: dead peer
		}
		noAck := flags&wire.StreamFlagNoAck != 0
		if held != nil {
			if noAck {
				continue // session already failing: drain elided frames
			}
			if _, err := conn.WriteFrames(net.Buffers{held}); err != nil {
				return
			}
			held = nil
			continue
		}
		req, err := wire.Binary{}.DecodeRequest(payload)
		if err != nil {
			// A frame that does not decode means the stream framing itself
			// is unreliable; kill the session rather than guess at framing.
			return
		}
		resp := cfg.Invoke(req)
		if noAck && suppressible(resp) {
			releaseLeases(resp, req)
			cfg.Counters.AcksElided.Add(1)
			continue
		}
		out, err = appendResponseFrame(out[:0], resp, req, cfg.Prefix)
		if err != nil {
			return
		}
		if noAck {
			held = append([]byte(nil), out...)
			continue
		}
		if _, err := conn.WriteFrames(net.Buffers{out}); err != nil {
			return
		}
	}
}

// suppressible reports whether a response to a no-ack frame may be elided:
// nothing failed and the payload explicitly opted its acknowledgement out
// of the wire.
func suppressible(resp *wire.Response) bool {
	if resp.Kind != "" || resp.Err != "" {
		return false
	}
	el, ok := resp.Payload.(transport.AckElidable)
	return ok && el.AckElidable()
}

// releaseLeases returns pooled buffers in the per-call order for a
// response that never gets encoded.
func releaseLeases(resp *wire.Response, req *wire.Request) {
	if lease, ok := resp.Payload.(wire.ResponseBufferLease); ok {
		lease.ReleaseResponseBuffers()
	}
	if lease, ok := req.Payload.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

// appendResponseFrame encodes one response as a complete stream frame into
// dst, releasing the call's leases once the body is encoded.
func appendResponseFrame(dst []byte, resp *wire.Response, req *wire.Request, prefix string) ([]byte, error) {
	body, err := wire.Binary{}.AppendResponse(GetFrame(), resp)
	// Leases are released once the response frame is fully encoded:
	// pooled response vectors (a download's model snapshot), then the
	// request's leased decode vectors.
	releaseLeases(resp, req)
	if err != nil {
		body, err = wire.Binary{}.AppendResponse(GetFrame(), &wire.Response{Err: prefix + ": encoding response: " + err.Error()})
		if err != nil {
			return dst, err
		}
	}
	dst = wire.AppendStreamFrame(dst, 0, body)
	PutFrame(body)
	return dst, nil
}
