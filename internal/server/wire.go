package server

import "repro/internal/transport/wire"

// The control plane rides the in-memory fabric as plain `any` values; to
// cross a process boundary every payload and response must instead be a
// registered wire message. This file is the explicit registry of everything
// internal/server puts on the network — Section 4's Coordinator/Aggregator/
// Selector protocols, the Section 6.1 client session calls, and the
// Appendix E.3/E.4 control messages. A type absent from this list cannot
// cross a networked fabric; wire round-trip tests enumerate exactly this
// set.
func init() {
	// Primitive payloads: node names (register-aggregator, drop-task,
	// task-info) and bare acks.
	wire.Register("papaya/v1/string", "")
	wire.Register("papaya/v1/bool", false)

	// Coordinator-facing control messages (Sections 6.2-6.3, Appendix E.4).
	wire.Register("papaya/v1/server.TaskSpec", TaskSpec{})
	wire.Register("papaya/v1/server.Assignment", Assignment{})
	wire.Register("papaya/v1/server.AggReport", AggReport{})
	wire.Register("papaya/v1/server.AggDirective", AggDirective{})
	wire.Register("papaya/v1/server.AssignTaskRequest", AssignTaskRequest{})
	wire.Register("papaya/v1/server.AssignClientRequest", AssignClientRequest{})
	wire.Register("papaya/v1/server.AssignClientResponse", AssignClientResponse{})
	wire.Register("papaya/v1/server.MapResponse", MapResponse{})
	wire.Register("papaya/v1/server.AgentListResponse", AgentListResponse{})
	wire.Register("papaya/v1/server.ReconfigureRequest", ReconfigureRequest{})

	// Client-session calls (Section 6.1's virtual session, stages 1-4).
	wire.Register("papaya/v1/server.CheckinRequest", CheckinRequest{})
	wire.Register("papaya/v1/server.CheckinResponse", CheckinResponse{})
	wire.Register("papaya/v1/server.JoinRequest", JoinRequest{})
	wire.Register("papaya/v1/server.JoinResponse", JoinResponse{})
	wire.Register("papaya/v1/server.DownloadRequest", DownloadRequest{})
	wire.Register("papaya/v1/server.DownloadResponse", DownloadResponse{})
	wire.Register("papaya/v1/server.ReportRequest", ReportRequest{})
	wire.Register("papaya/v1/server.ReportResponse", ReportResponse{})
	wire.Register("papaya/v1/server.UploadChunk", UploadChunk{})
	wire.Register("papaya/v1/server.UploadResponse", UploadResponse{})
	wire.Register("papaya/v1/server.FailRequest", FailRequest{})
	wire.Register("papaya/v1/server.RouteRequest", RouteRequest{})
	wire.Register("papaya/v1/server.TaskInfo", TaskInfo{})
}
