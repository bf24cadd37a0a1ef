package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"gpm/client"
)

// tracez serves the registry tracer's bounded ring of recent commit
// traces — the repository's answer to "what happened inside commit N".
// It is mounted on leaders and followers alike, so a trace that spans
// the replication topology can be pulled from either end by its ID.
//
//	GET /v1/tracez              most recent traces (?limit=N, default 50)
//	GET /v1/tracez?trace=<hex>  one trace by its 32-hex trace ID
//	GET /v1/tracez?seq=<N>      the trace that committed sequence N
//
// The list form wraps the snapshots with the tracer's sampling mode and
// retained-count, so a client can tell "no traces" apart from "sampling
// is off". Lookups answer 404 not_found when the ring no longer retains
// the trace (it is a bounded in-memory buffer, not a store).
func (s *Server) tracez(w http.ResponseWriter, r *http.Request) {
	tr := s.registry().Tracer()
	q := r.URL.Query()
	if hex := q.Get("trace"); hex != "" {
		snap, ok := tr.Lookup(hex)
		if !ok {
			writeError(w, r, http.StatusNotFound, client.CodeNotFound,
				fmt.Errorf("trace %q not retained", hex))
			return
		}
		writeJSON(w, http.StatusOK, snap)
		return
	}
	if raw := q.Get("seq"); raw != "" {
		seq, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, client.CodeInvalidSeq,
				fmt.Errorf("bad seq %q: %w", raw, err))
			return
		}
		snap, ok := tr.BySeq(seq)
		if !ok {
			writeError(w, r, http.StatusNotFound, client.CodeNotFound,
				fmt.Errorf("no retained trace for seq %d", seq))
			return
		}
		writeJSON(w, http.StatusOK, snap)
		return
	}
	limit := 50
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, r, http.StatusBadRequest, client.CodeInvalidSeq,
				fmt.Errorf("bad limit %q", raw))
			return
		}
		limit = v
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":     tr.Mode().String(),
		"retained": tr.Len(),
		"traces":   tr.Traces(limit),
	})
}
