package httpapi

import (
	"errors"
	"io"
	"net/http"

	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/tenant"
)

// Migration admin routes (pool servers only). The cluster router
// (internal/cluster) moves a session between nodes with one export on
// the old owner and one import on the new one:
//
//	POST /v2/admin/export?session=S  → snapshot bytes (octet-stream);
//	                                   the session leaves this node's pool
//	POST /v2/admin/import?session=S  → 204; S now answers here with the
//	                                   imported world
//
// The payload is the durable tier's self-verifying snapshot format —
// the same bytes spills and crash recovery use — so a migrated
// session is byte-identical to one that never moved.

// maxImportBody bounds an import payload. Snapshots are compact JSON
// world state; 64 MiB is far beyond any session this repository can
// grow, while still refusing a runaway upload.
const maxImportBody = 64 << 20

// CodeNotSnapshottable rejects export/import of a backend chain with
// no learned emulator in it (oracle, manual, d2c): there is no
// portable world state to move. Semantic — retrying cannot help.
const CodeNotSnapshottable = "NotSnapshottable"

// withSession runs op on session sid's backend, resolved through the
// pool — and resolved and run once more when op reports that the
// wrapper was evicted since the lookup (durable.ErrSpilled). Losing
// that race twice is the transient ServiceUnavailable.
func (s *server) withSession(r *http.Request, sid string, op func(cloudapi.Backend) error) error {
	for attempt := 0; ; attempt++ {
		b, err := s.pool.GetCtx(r.Context(), sid)
		if err != nil {
			return err
		}
		if err = op(b); !errors.Is(err, durable.ErrSpilled) {
			return err
		}
		if attempt > 0 {
			return errEvictedTwice(sid)
		}
	}
}

// writeTransferError answers a failed export or import: the pool's own
// errors keep their code, anything else is the chain having no
// portable state.
func (s *server) writeTransferError(w http.ResponseWriter, reqID, verb, sid string, err error) {
	if _, ok := cloudapi.AsAPIError(err); ok {
		s.writeAPIError(w, reqID, err)
		return
	}
	WriteError(w, http.StatusBadRequest, reqID,
		cloudapi.Errf(CodeNotSnapshottable, "cannot %s session %q: %v", verb, sid, err))
}

// v2AdminExport cuts a consistent snapshot of one session and removes
// the session from this node's pool (spilling it if a durable tier is
// mounted, so the disk copy stays the fallback of record). The
// response body is the raw snapshot; the session and request IDs ride
// in headers so the body stays pristine snapshot bytes.
func (s *server) v2AdminExport(w http.ResponseWriter, r *http.Request) {
	reqID := s.requestID(r)
	sid := r.URL.Query().Get("session")
	if sid == "" {
		s.malformed(w, reqID, "missing session query parameter")
		return
	}
	var data []byte
	err := s.withSession(r, sid, func(b cloudapi.Backend) (err error) {
		data, err = durable.ExportBackend(b)
		return err
	})
	if err != nil {
		s.writeTransferError(w, reqID, "export", sid, err)
		return
	}
	// The session leaves this pool the moment its bytes are cut: the
	// next request for it must rehydrate (locally from spill, or on
	// the importing node), never hit a stale resident copy. The pinned
	// default session cannot be released; its bytes still export, and
	// the idle resident copy is unreachable once the router stops
	// sending traffic here.
	if sid != tenant.DefaultSession {
		s.pool.Release(sid)
	}
	w.Header().Set(RequestIDHeader, reqID)
	w.Header().Set(SessionHeader, sid)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// v2AdminImport lands exported snapshot bytes on this node: the
// session's backend is created (or rehydrated) through the normal
// pool path, its state replaced wholesale, and — when a durable tier
// is mounted — immediately checkpointed so a crash replays the
// imported world, not a stale journal.
func (s *server) v2AdminImport(w http.ResponseWriter, r *http.Request) {
	reqID := s.requestID(r)
	sid := r.URL.Query().Get("session")
	if sid == "" {
		s.malformed(w, reqID, "missing session query parameter")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxImportBody))
	if err != nil {
		s.malformed(w, reqID, "cannot read snapshot body: %v", err)
		return
	}
	if len(data) == 0 {
		s.malformed(w, reqID, "empty snapshot body")
		return
	}
	err = s.withSession(r, sid, func(b cloudapi.Backend) error { return durable.RestoreBackend(b, data) })
	if err != nil {
		s.writeTransferError(w, reqID, "import", sid, err)
		return
	}
	w.Header().Set(RequestIDHeader, reqID)
	w.WriteHeader(http.StatusNoContent)
}
