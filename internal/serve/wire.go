package serve

import (
	"encoding/json"
	"errors"
	"mime"
	"net/http"
	"strings"
	"time"

	"gpm/client"
	"gpm/internal/contq"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs/trace"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not actionable
}

// writeError emits the v1 error envelope, a client.APIError, for err
// under code, stamping the request's trace ID (threaded into the context
// by ServeHTTP) so failures join with traces. opt, when given, carries
// the envelope's optional fields: seq on journal_failed, leader on
// read_only.
func writeError(w http.ResponseWriter, r *http.Request, status int, code string, err error, opt ...client.APIError) {
	var env client.APIError
	if len(opt) > 0 {
		env = opt[0]
	}
	env.Code, env.Message = code, err.Error()
	if sc := trace.FromContext(r.Context()); sc.Valid() {
		env.TraceID = sc.TraceID.String()
	}
	writeJSON(w, status, env)
}

// classify maps the contq/journal sentinel errors to their wire status
// and code; fallback is the caller's "bad input" classification.
func classify(err error, fallbackStatus int, fallbackCode string) (int, string) {
	switch {
	case errors.Is(err, contq.ErrNotRegistered):
		return http.StatusNotFound, client.CodeNotFound
	case errors.Is(err, contq.ErrAlreadyRegistered):
		return http.StatusConflict, client.CodeAlreadyRegistered
	case errors.Is(err, contq.ErrClosed):
		return http.StatusServiceUnavailable, client.CodeClosed
	case errors.Is(err, contq.ErrBadKind):
		return http.StatusBadRequest, client.CodeInvalidKind
	case errors.Is(err, journal.ErrCompacted):
		return http.StatusGone, client.CodeCompacted
	case errors.Is(err, contq.ErrSeqFuture):
		return http.StatusBadRequest, client.CodeSeqFuture
	}
	return fallbackStatus, fallbackCode
}

// isJSON reports whether the request body is a JSON document (by
// Content-Type); anything else is read as the repository's text formats,
// keeping curl/CLI sessions working unchanged.
func isJSON(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json" || strings.HasSuffix(mt, "+json")
}

// readGraphBody negotiates the graph request body: the JSON wire document
// under Content-Type application/json, the text format otherwise.
func readGraphBody(r *http.Request) (*graph.Graph, error) {
	if !isJSON(r) {
		return graph.Read(r.Body)
	}
	g := graph.New()
	if err := json.NewDecoder(r.Body).Decode(g); err != nil {
		return nil, err
	}
	return g, nil
}

// readPatternBody negotiates the pattern request body.
func readPatternBody(r *http.Request) (*pattern.Pattern, error) {
	if !isJSON(r) {
		return pattern.Parse(r.Body)
	}
	p := pattern.New()
	if err := json.NewDecoder(r.Body).Decode(p); err != nil {
		return nil, err
	}
	return p, nil
}

// readUpdatesBody negotiates the update-batch request body: a JSON array
// of {"op","from","to"} documents, or the one-update-per-line text format.
func readUpdatesBody(r *http.Request) ([]graph.Update, error) {
	if !isJSON(r) {
		return graph.ReadUpdates(r.Body)
	}
	var ups []graph.Update
	if err := json.NewDecoder(r.Body).Decode(&ups); err != nil {
		return nil, err
	}
	return ups, nil
}

// orEmpty keeps an empty pair or update list rendering as [] (never
// null) on the wire.
func orEmpty[T any](list []T) []T {
	if list == nil {
		return []T{}
	}
	return list
}

// wireResult is pattern id's relation m at seq as its wire document.
func wireResult(id string, seq uint64, m rel.Relation) client.Result {
	return client.Result{ID: id, Seq: seq, Size: m.Size(), Pairs: orEmpty(m.Pairs())}
}

// wirePatternDef is a journaled pattern definition as its wire document.
func wirePatternDef(pd journal.PatternDef) client.PatternDef {
	return client.PatternDef{ID: pd.ID, Kind: pd.Kind, Def: string(pd.Def), RegSeq: pd.RegSeq}
}

// wirePatternDefs is a pattern set as its wire list ([] when empty).
func wirePatternDefs(defs []journal.PatternDef) []client.PatternDef {
	out := make([]client.PatternDef, 0, len(defs))
	for _, pd := range defs {
		out = append(out, wirePatternDef(pd))
	}
	return out
}

// unixNano is a frame's publish time on the wire: 0, which the frame
// omits, when unset.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}
