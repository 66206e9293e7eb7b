package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
)

// handleMetrics is GET /metrics: Prometheus text exposition (format
// 0.0.4), hand-written against the stdlib — the repo's no-dependency
// discipline extends to observability. The endpoint stays answerable
// while draining, like the health probes: shutdown is exactly when a
// scraper most wants the gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n, open := s.readySnapshot()
	jm := s.jobs.MetricsSnapshot()
	running, queued := s.gate.snapshot()
	cs := s.cache.stats()

	b01 := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	var sb strings.Builder
	gauge := func(name, help string, value any) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	counter := func(name, help string, value any) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, value)
	}

	gauge("snad_inflight_requests", "Requests currently being served.", s.inflightN.Load())
	gauge("snad_running_analyses", "Analyses currently holding a worker slot.", running)
	gauge("snad_queued_requests", "Requests waiting for a worker slot.", queued)
	gauge("snad_request_capacity", "Concurrent analysis worker slots.", s.cfg.MaxConcurrent)
	gauge("snad_request_queue_depth", "Admission queue capacity.", s.cfg.QueueDepth)
	counter("snad_shed_requests_total", "Requests shed by bounded admission (429).", s.shedN.Load())
	gauge("snad_sessions_loaded", "Sessions materialized in memory.", n)
	gauge("snad_breakers_open", "Sessions with an open circuit breaker.", len(open))
	gauge("snad_draining", "1 while a graceful drain is in progress.", b01(s.draining.Load()))
	gauge("snad_durable", "1 when a durable data directory is configured.", b01(s.store != nil))
	gauge("snad_storage_degraded", "1 after any journal append has failed.", b01(s.storageDegraded(jm)))

	gauge("snad_jobs_queued", "Async jobs waiting for an engine slot or a retry.", jm.Queued)
	gauge("snad_jobs_running", "Async jobs currently executing.", jm.Running)
	gauge("snad_job_queue_depth", "Async job queue capacity.", s.cfg.JobQueueDepth)
	counter("snad_jobs_done_total", "Async jobs completed successfully.", jm.Done)
	counter("snad_jobs_failed_total", "Async jobs that exhausted retries or failed permanently.", jm.Failed)
	counter("snad_jobs_canceled_total", "Async jobs canceled by request.", jm.Canceled)
	counter("snad_jobs_quarantined_total", "Poison jobs parked after repeated panics, crashes, or degradations.", jm.Quarantined)

	// Memory governance: the shared design cache and its byte budget.
	gauge("snad_mem_budget_bytes", "Configured server memory budget for cached designs (0 = unlimited).", cs.Budget)
	gauge("snad_mem_charged_bytes", "Bytes charged to resident cached designs.", cs.Charged)
	gauge("snad_cached_designs", "Bound designs resident in the shared cache.", cs.Entries)
	gauge("snad_cached_designs_referenced", "Cached designs currently referenced by at least one session or shard token.", cs.Referenced)
	counter("snad_design_cache_hits_total", "Session builds served from the shared design cache (including single-flight coalesces).", cs.Hits)
	counter("snad_design_cache_misses_total", "Session builds that parsed and bound a new design.", cs.Misses)
	counter("snad_design_cache_evictions_total", "Idle cached designs evicted for budget headroom.", cs.Evictions)
	counter("snad_budget_sheds_total", "Requests shed with 503 because the memory budget could not fit their design.", cs.BudgetSheds)

	// Go runtime gauges: the load harness and the CI smoke job read heap
	// occupancy next to the cache's own accounting.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("snad_go_heap_alloc_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", ms.HeapAlloc)
	gauge("snad_go_heap_sys_bytes", "Bytes of heap obtained from the OS (runtime.MemStats.HeapSys).", ms.HeapSys)
	gauge("snad_go_goroutines", "Live goroutines.", runtime.NumGoroutine())

	// Per-stage latency histograms.
	s.histAdmission.Write(&sb)
	s.histAnalysis.Write(&sb)
	s.histFsync.Write(&sb)
	s.histJobRun.Write(&sb)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, sb.String())
}
