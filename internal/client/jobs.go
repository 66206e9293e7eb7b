package client

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
)

// SubmitJob submits an async job and returns its 202 snapshot. Not
// retried on transport failure: a submit is journaled before the ack, so
// the job may have been accepted even though the response never arrived —
// replaying it would enqueue the work twice. Shed (429) and draining
// (503) responses are still retried, because those are explicit refusals.
func (c *Client) SubmitJob(ctx context.Context, spec *jobs.Spec) (*report.JobJSON, error) {
	var snap report.JobJSON
	if err := c.doRetry(ctx, "POST", "/v1/jobs", spec, &snap, false); err != nil {
		return nil, err
	}
	return &snap, nil
}

// JobStatus fetches one job's snapshot.
func (c *Client) JobStatus(ctx context.Context, id string) (*report.JobJSON, error) {
	var snap report.JobJSON
	if err := c.doRetry(ctx, "GET", "/v1/jobs/"+url.PathEscape(id), nil, &snap, true); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Jobs lists every job the server remembers (all non-terminal jobs plus
// the retained tail of terminal ones).
func (c *Client) Jobs(ctx context.Context) ([]report.JobJSON, error) {
	var out server.JobsResponse
	if err := c.doRetry(ctx, "GET", "/v1/jobs", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelJob requests cancellation of a job. Idempotent on an already
// canceled job; a done/failed job answers 409 conflict.
func (c *Client) CancelJob(ctx context.Context, id string) (*report.JobJSON, error) {
	var snap report.JobJSON
	if err := c.doRetry(ctx, "DELETE", "/v1/jobs/"+url.PathEscape(id), nil, &snap, true); err != nil {
		return nil, err
	}
	return &snap, nil
}

// WaitJob polls a job until it reaches a terminal state (done, failed, or
// canceled) or ctx expires. The second poll follows within milliseconds —
// an iterate job on a small design is done by then — and the interval then
// grows by half each poll up to 3 s, since a batch job can run for
// minutes and hammering the status endpoint wins nothing.
func (c *Client) WaitJob(ctx context.Context, id string) (*report.JobJSON, error) {
	delay := 5 * time.Millisecond
	for {
		snap, err := c.JobStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if snap.Terminal() {
			return snap, nil
		}
		if err := c.sleep(ctx, delay); err != nil {
			return snap, fmt.Errorf("snad: job %s still %s: %w", id, snap.State, err)
		}
		if delay = delay * 3 / 2; delay > 3*time.Second {
			delay = 3 * time.Second
		}
	}
}
