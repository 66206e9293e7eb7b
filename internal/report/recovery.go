package report

import (
	"fmt"
	"io"
)

// RecoveryJSON is the boot-time restore report of snad's durable state:
// what replaying the session journal and the job journal found, what was
// restored, and what was quarantined. The server builds one while
// opening its data directory and serves it on GET /v1/recovery; the snad
// CLI renders it with RecoveryText. The type lives here, next to the
// other wire schemas, so the server, the client, and the CLI share one
// definition without an import cycle.
type RecoveryJSON struct {
	// DataDir is the store's directory.
	DataDir string `json:"dataDir"`
	// RecoveredAt is the RFC3339 instant the replay started.
	RecoveredAt string `json:"recoveredAt"`
	// Records counts the journal records replayed, both journals.
	Records int `json:"records"`
	// Restored lists the sessions alive after replay, sorted.
	Restored []string `json:"restored,omitempty"`
	// Quarantined lists everything that could not be replayed and was
	// preserved aside instead of refusing the boot.
	Quarantined []QuarantineJSON `json:"quarantined,omitempty"`
	// TornTail reports that a journal ended in a partial frame — the
	// signature of a crash mid-append. The partial frame was dropped;
	// everything before it replayed normally.
	TornTail bool `json:"tornTail,omitempty"`
	// Compacted reports that the boot rewrote the session journal from
	// the replayed state (it does so after a quarantine or a repaired
	// tail, or when the journal had outgrown its last rewrite).
	Compacted bool `json:"compacted,omitempty"`
}

// QuarantineJSON describes one unreplayable piece of durable state:
// where its bytes were preserved and why it could not be applied. It is
// also the schema of the .reason.json sidecar next to those bytes.
type QuarantineJSON struct {
	// File is the path of the quarantined copy, relative to the data dir
	// (in a sidecar: to the directory of the journal it came from).
	File string `json:"file"`
	// Source names the journal it came from: "journal" (sessions) or
	// "jobs".
	Source string `json:"source"`
	// Reason is the structured cause (CRC mismatch, bad frame length,
	// undecodable record, unreplayable payload, ...).
	Reason string `json:"reason"`
	// Session names the affected session when the owner identified one.
	Session string `json:"session,omitempty"`
	// Seq is the journal sequence number of the record, when known.
	Seq uint64 `json:"seq,omitempty"`
}

// RecoveryText renders the recovery report in the repo's report idiom: a
// short header, one line per restored session, one line per quarantined
// item.
func RecoveryText(w io.Writer, r *RecoveryJSON) {
	fmt.Fprintf(w, "recovery: %s\n", r.DataDir)
	fmt.Fprintf(w, "  recovered at %s: %d journal record(s), %d session(s) restored\n",
		r.RecoveredAt, r.Records, len(r.Restored))
	if r.TornTail {
		fmt.Fprintf(w, "  torn journal tail discarded (crash mid-append)\n")
	}
	if r.Compacted {
		fmt.Fprintf(w, "  journal compacted after replay\n")
	}
	for _, name := range r.Restored {
		fmt.Fprintf(w, "  restored %s\n", name)
	}
	for _, q := range r.Quarantined {
		who := q.Source
		if q.Session != "" {
			who += " " + q.Session
		}
		fmt.Fprintf(w, "  QUARANTINED %s -> %s: %s\n", who, q.File, q.Reason)
	}
	if len(r.Quarantined) == 0 {
		fmt.Fprintf(w, "  no records quarantined\n")
	}
}
