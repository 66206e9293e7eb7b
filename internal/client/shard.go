package client

import (
	"bytes"
	"context"
	"net/url"

	"repro/internal/server"
	"repro/internal/shard"
)

// ShardWorker adapts a remote snad process into a shard.Worker: each
// protocol op posts the request's binary frame (application/octet-stream)
// to the worker's /v1/shard/{op} endpoint and decodes the reply's frame into
// resp; JSON appears only in an error body. It does NOT retry — the
// coordinator owns the retry/re-host discipline, and stacking a second retry
// loop under it would stretch its failure detection — but it does translate
// the server's structured error kinds back into the shard error taxonomy
// (server.ShardError, the inverse of what the worker's handler wrote) so the
// coordinator can classify failures exactly as it does for in-process
// workers.
//
// Invariant: at most one request is in flight per worker per run — the
// coordinator sends a worker one request per step, carrying every shard it
// hosts there, and waits for the answer — so one keep-alive connection serves
// a whole run whatever the shard count, inside http.DefaultTransport's two
// idle connections per host. Only the failure ladder's requests may overlap.
type ShardWorker struct {
	name string
	c    *Client
}

// NewShardWorker builds a worker proxy for the snad process at base.
// policy's AttemptTimeout bounds each op (retry counts are ignored —
// MaxAttempts is forced to 1).
func NewShardWorker(name, base string, policy RetryPolicy) *ShardWorker {
	policy.MaxAttempts = 1
	return &ShardWorker{name: name, c: New(base, policy)}
}

// Name implements shard.Worker.
func (w *ShardWorker) Name() string { return w.name }

// Do implements shard.Worker.
func (w *ShardWorker) Do(ctx context.Context, op string, req, resp any) error {
	frame, err := shard.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := w.c.attemptCtx(ctx)
	defer cancel()
	data, err := w.c.roundTrip(ctx, "POST", "/v1/shard/"+url.PathEscape(op), "application/octet-stream", bytes.NewReader(frame))
	if ae, ok := err.(*APIError); ok {
		if serr := server.ShardError(w.name, ae.Info); serr != nil {
			return serr
		}
		// Everything else (overloaded, draining, deadline, engine, ...) is
		// transient from the coordinator's seat: retry, then re-host.
	}
	if err != nil || resp == nil {
		return err
	}
	return shard.Unmarshal(data, resp)
}

// Ping implements shard.Worker via the worker's liveness endpoint.
func (w *ShardWorker) Ping(ctx context.Context) error {
	_, err := w.c.Health(ctx)
	return err
}

// Workers fetches the coordinator's worker fleet.
func (c *Client) Workers(ctx context.Context) ([]server.WorkerInfo, error) {
	var out []server.WorkerInfo
	if err := c.doRetry(ctx, "GET", "/v1/workers", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}
