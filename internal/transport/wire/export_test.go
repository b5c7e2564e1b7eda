package wire

// GobEnvelope frames like Binary but forces every payload onto the
// in-frame gob envelope (binGobPayload) — the cost any message without a
// hand-rolled form pays. Binary.Decode* reads its frames unchanged. The
// bin-vs-gob bench gate measures the hand-rolled forms against it.
type GobEnvelope struct{}

// AppendRequest appends a request frame whose payload is gob-enveloped.
func (GobEnvelope) AppendRequest(dst []byte, r *Request) ([]byte, error) {
	dst = append(dst, 'P', 'B', Version, binFrameRequest)
	dst = AppendString(dst, r.From)
	dst = AppendString(dst, r.Method)
	return appendGobPayload(dst, r.Payload)
}

// AppendResponse appends a response frame whose payload is gob-enveloped.
func (GobEnvelope) AppendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, 'P', 'B', Version, binFrameResponse)
	dst = AppendString(dst, r.Err)
	dst = AppendString(dst, r.Kind)
	return appendGobPayload(dst, r.Payload)
}
