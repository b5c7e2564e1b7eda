package server

import "time"

// ReapSessionsAt runs one session-reaper sweep as if the clock read now,
// so tests can place sweeps at chosen instants instead of racing the
// heartbeat ticker.
func (a *Aggregator) ReapSessionsAt(now time.Time) { a.reapSessions(now) }
