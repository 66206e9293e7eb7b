package server

import (
	"net/http"
	"time"
)

// What wire_test.go needs of the package from outside it: that file drives
// the real fail through internal/client, which imports this package, so it
// cannot be an internal test.

// KindRow is one row of the kind table.
type KindRow struct {
	Status int
	Retry  bool
}

// KindRows copies the kind table.
func KindRows() map[string]KindRow {
	rows := make(map[string]KindRow, len(kinds))
	for kind, row := range kinds {
		rows[kind] = KindRow{row.status, row.retry}
	}
	return rows
}

// FailShard answers a request the way handleShardOp answers a runner error.
func (s *Server) FailShard(w http.ResponseWriter, err error) { s.fail(w, shardErr(err)) }

// Fail answers a request the way every handler's error leaves the server.
func (s *Server) Fail(w http.ResponseWriter, err error) { s.fail(w, err) }

// WithRetryAfter gives info a Retry-After hint of its own, as the breaker
// gives its refusal the remaining cooldown.
func WithRetryAfter(info *ErrorInfo, hint time.Duration) *ErrorInfo {
	info.retryAfter = hint
	return info
}
