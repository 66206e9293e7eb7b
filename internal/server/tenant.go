package server

// Tenant-fair bounded admission. Every engine the server runs holds a
// slot of one internal/fairq.Pool: routes take an interactive slot here,
// job attempts a batch slot in internal/jobs. The tenant is free text
// from the X-Snad-Tenant header; absent means the "" tenant, so untagged
// traffic shares one fair slice instead of bypassing fairness.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/fairq"
)

// TenantHeader carries the tenant ID on requests and job submissions
// (exported for the client and load harness).
const TenantHeader = "X-Snad-Tenant"

func tenantOf(r *http.Request) string { return r.Header.Get(TenantHeader) }

// slots is the engine slot pool as the routes see it; snapshot is its
// interactive class, what /readyz and /metrics report.
type slots struct{ *fairq.Pool }

func (g slots) snapshot() (running, queued int) { return g.Load(fairq.Interactive) }

// admit takes an interactive slot for the request, waiting under its
// context and the drain signal. It returns a release function, or the
// shed the caller fails with.
func (s *Server) admit(r *http.Request) (release func(), err error) {
	start := time.Now()
	t := s.gate.Join(fairq.Interactive, tenantOf(r))
	if t == nil {
		// A full queue means the server is past its configured backlog:
		// shed at once rather than build an invisible line of doomed
		// requests.
		s.shedN.Add(1)
		return nil, &ErrorInfo{
			Kind:    "overloaded",
			Message: fmt.Sprintf("all %d workers busy and queue of %d full", s.cfg.MaxConcurrent, s.cfg.QueueDepth),
		}
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.forceCtx, cancel)()
	if t.Wait(ctx) != nil {
		if s.forceCtx.Err() != nil {
			return nil, &ErrorInfo{Kind: "draining", Message: "server drained while request was queued"}
		}
		return nil, &ErrorInfo{Kind: "deadline", Message: "request expired while queued for a worker"}
	}
	s.histAdmission.Observe(time.Since(start).Seconds())
	return func() { s.gate.Release(fairq.Interactive) }, nil
}
