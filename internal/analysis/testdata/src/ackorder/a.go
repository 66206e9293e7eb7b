// Golden cases for the ackorder analyzer: 2xx acknowledgements must
// follow the store's journal-append in source order.
package ackorder

// Store mirrors the durable session store; the analyzer matches the
// journal-appending mutators by method name on a *Store-named type.
type Store struct{}

func (st *Store) Create(name string) error  { return nil }
func (st *Store) Delete(name string) error  { return nil }
func (st *Store) Padding(name string) error { return nil }
func (st *Store) Spec(name string) *string  { return nil }

// Manager mirrors the job manager: Submit and Cancel journal before they
// return.
type Manager struct{}

func (m *Manager) Submit(spec string) (string, error) { return "", nil }
func (m *Manager) Cancel(id string) (string, error)   { return "", nil }
func (m *Manager) Get(id string) (string, error)      { return "", nil }

type responseWriter struct{}

func (w *responseWriter) WriteHeader(code int) {}

func writeJSON(w *responseWriter, status int, v any) {}

const (
	statusOK        = 200
	statusCreated   = 201
	statusAccepted  = 202
	statusNoContent = 204
	statusUnavail   = 503
)

// ackFirst acknowledges creation before the journal append: reported.
func ackFirst(w *responseWriter, st *Store, name string) {
	writeJSON(w, statusCreated, name) // want `success acknowledged before the store mutation`
	_ = st.Create(name)
}

// journalFirst appends, checks, then acknowledges: clean.
func journalFirst(w *responseWriter, st *Store, name string) {
	if err := st.Create(name); err != nil {
		writeJSON(w, statusUnavail, err)
		return
	}
	writeJSON(w, statusCreated, name)
}

// headerFirst writes the bare 2xx header before the tombstone: reported.
func headerFirst(w *responseWriter, st *Store, name string) {
	w.WriteHeader(statusNoContent) // want `success acknowledged before the store mutation`
	_ = st.Delete(name)
}

// headerAfter is the correct delete ordering: clean.
func headerAfter(w *responseWriter, st *Store, name string) {
	if err := st.Delete(name); err != nil {
		writeJSON(w, statusUnavail, err)
		return
	}
	w.WriteHeader(statusNoContent)
}

// readOnly consults the store without mutating; acks are unconstrained:
// clean.
func readOnly(w *responseWriter, st *Store, name string) {
	if st.Spec(name) == nil {
		writeJSON(w, statusOK, nil)
	}
}

// dynamicStatus cannot be proven 2xx, so it is not an acknowledgement the
// analyzer constrains: clean.
func dynamicStatus(w *responseWriter, st *Store, name string, status int) {
	writeJSON(w, status, name)
	_ = st.Padding(name)
}

// waived documents an intentional early ack: suppressed.
func waived(w *responseWriter, st *Store, name string) {
	//snavet:ackorder padding re-applies idempotently; ack-before-journal is safe here
	writeJSON(w, statusOK, name)
	_ = st.Padding(name)
}

// submitAckFirst sends the 202 before the job spec is journaled:
// reported.
func submitAckFirst(w *responseWriter, m *Manager, spec string) {
	writeJSON(w, statusAccepted, spec) // want `success acknowledged before the store mutation`
	_, _ = m.Submit(spec)
}

// cancelJournalFirst journals the cancel intent, then acknowledges with
// either constant status: clean.
func cancelJournalFirst(w *responseWriter, m *Manager, id string) {
	snap, err := m.Cancel(id)
	if err != nil {
		writeJSON(w, statusUnavail, err)
		return
	}
	if snap == "canceled" {
		writeJSON(w, statusOK, snap)
		return
	}
	writeJSON(w, statusAccepted, snap)
}

// writeJob stands for the helpers that write an already-encoded reply.
func writeJob(w *responseWriter, status int, snap string) {}

// submitRawAckFirst sends the 202 through such a helper before the job
// spec is journaled: reported.
func submitRawAckFirst(w *responseWriter, m *Manager, spec string) {
	writeJob(w, statusAccepted, spec) // want `success acknowledged before the store mutation`
	_, _ = m.Submit(spec)
}

// jobStatus reads the manager without mutating: clean.
func jobStatus(w *responseWriter, m *Manager, id string) {
	writeJSON(w, statusOK, id)
	_, _ = m.Get(id)
}
