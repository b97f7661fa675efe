// Package resultsrv is the HTTP face of the persistent results store:
// the query API and live dashboard behind cmd/resultsd. It reads a
// nocsim/results store (typically as a read-only follower of the file a
// coordinator is ingesting into), serves filtered point queries, renders
// completed plans into the same tables cmd/figures prints — byte for
// byte, via internal/sweep's Render — and memoizes those renders keyed
// by the plan fingerprint, so a repeated query is a map lookup no matter
// how many users ask.
package resultsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/nocsim/results"
)

// Server serves one results store over HTTP. The zero value of the
// counters is ready; construct with the Store (required) and an optional
// Coordinator client for the live-fleet feed.
type Server struct {
	// Store is the results store to serve. With a read-only store the
	// server refreshes it before answering, so queries observe points a
	// live coordinator appended moments ago.
	Store *results.Store
	// Coordinator, when non-nil, is proxied for the dashboard's live
	// feed: GET /api/coordinator/metrics forwards the coordinator's
	// Prometheus text (with the client's token attached), so the browser
	// needs no fleet credentials.
	Coordinator *queue.Client

	mu      sync.Mutex
	cache   map[string][]sweep.Table // rendered tables keyed by plan fingerprint
	queries int64                    // API queries answered
	hits    int64                    // renders served from the cache
	misses  int64                    // renders that had to run
}

// Stats is the service's own instrumentation, served as /api/stats and
// (in Prometheus form) /metrics. CacheHits counting up while repeated
// identical queries come in is the observable proof that rendering is
// O(1) after the first hit.
type Stats struct {
	Queries     int64 `json:"queries"`
	CacheHits   int64 `json:"render_cache_hits"`
	CacheMisses int64 `json:"render_cache_misses"`
	Plans       int   `json:"plans"`
	Points      int   `json:"points"`
}

// Stats returns a snapshot of the service counters and store contents.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{Queries: s.queries, CacheHits: s.hits, CacheMisses: s.misses}
	s.mu.Unlock()
	for _, p := range s.Store.Plans() {
		st.Plans++
		st.Points += p.Done
	}
	return st
}

// IncompleteError reports a render request against a plan whose points
// are not all stored yet; it carries the progress so callers (and the
// dashboard) can say how far along the sweep is.
type IncompleteError struct {
	Sum   string
	Name  string
	Done  int
	Total int
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("resultsrv: plan %s (%s) is %d/%d complete; tables render only from complete plans", e.Sum, e.Name, e.Done, e.Total)
}

// Tables renders a stored plan's tables, by fingerprint or manifest
// name. Identical plans share one cached render: the first call for a
// fingerprint renders and memoizes, every later call is a cache hit.
// Any changed planning knob changes the fingerprint (see manifest.Sum)
// and therefore misses — there is no way for a stale table to be served
// against a new plan. The bool reports whether this call was a cache
// hit.
func (s *Server) Tables(ref string) ([]sweep.Table, bool, error) {
	sum, ok := s.Store.Resolve(ref)
	if !ok {
		return nil, false, fmt.Errorf("resultsrv: unknown plan %q", ref)
	}
	s.mu.Lock()
	if tables, ok := s.cache[sum]; ok {
		s.hits++
		s.mu.Unlock()
		return tables, true, nil
	}
	s.mu.Unlock()

	m, flat, done, ok := s.Store.Complete(sum)
	if !ok {
		return nil, false, fmt.Errorf("resultsrv: unknown plan %q", ref)
	}
	if flat == nil {
		return nil, false, &IncompleteError{Sum: sum, Name: m.Name, Done: done, Total: m.NumPoints()}
	}
	tables, err := sweep.Render(m, flat)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.cache[sum]; ok {
		// A concurrent request rendered the same plan first; count this
		// one as the hit it effectively is and share the cached tables.
		s.hits++
		return cached, true, nil
	}
	if s.cache == nil {
		s.cache = map[string][]sweep.Table{}
	}
	s.cache[sum] = tables
	s.misses++
	return tables, false, nil
}

// FormatTables renders tables to the aligned-text form cmd/figures
// prints on stdout — concatenated Table.Format output, which is what
// the CI smoke diffs byte-for-byte against a figures run.
func FormatTables(tables []sweep.Table) ([]byte, error) {
	var buf bytes.Buffer
	for i := range tables {
		if err := tables[i].Format(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// countQuery bumps the query counter and, for read-only stores, folds in
// freshly appended records so the answer reflects the live file.
func (s *Server) countQuery() error {
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()
	return s.Store.Refresh()
}

// Handler returns the service's HTTP API:
//
//	GET /                         -> live dashboard (HTML)
//	GET /api/plans                -> stored plans with progress
//	GET /api/points?...           -> filtered points (results.ParseQuery vocabulary)
//	GET /api/tables/{ref}         -> rendered tables; ?format=text (default) or json
//	GET /api/stats                -> Stats (cache hit/miss counters)
//	GET /api/coordinator/metrics  -> proxied coordinator Prometheus text (when configured)
//	GET /metrics                  -> the service's own Prometheus counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	})
	mux.HandleFunc("GET /api/plans", func(w http.ResponseWriter, r *http.Request) {
		if err := s.countQuery(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, s.Store.Plans())
	})
	mux.HandleFunc("GET /api/points", func(w http.ResponseWriter, r *http.Request) {
		if err := s.countQuery(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		params := map[string]string{}
		for k, vs := range r.URL.Query() {
			if len(vs) > 0 {
				params[k] = vs[0]
			}
		}
		q, err := results.ParseQuery(params)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pts, err := s.Store.Select(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if pts == nil {
			pts = []results.Point{}
		}
		writeJSON(w, pts)
	})
	mux.HandleFunc("GET /api/tables/{ref}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.countQuery(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		tables, hit, err := s.Tables(r.PathValue("ref"))
		if err != nil {
			if inc, ok := err.(*IncompleteError); ok {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusConflict)
				json.NewEncoder(w).Encode(map[string]any{"error": inc.Error(), "done": inc.Done, "total": inc.Total})
				return
			}
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("X-Render-Cache", cacheHeader(hit))
		switch r.URL.Query().Get("format") {
		case "", "text":
			text, err := FormatTables(tables)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(text)
		case "json":
			writeJSON(w, tables)
		default:
			http.Error(w, "unknown format (want text or json)", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("GET /api/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /api/coordinator/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.Coordinator == nil {
			http.Error(w, "no coordinator configured (-coordinator)", http.StatusNotFound)
			return
		}
		text, err := s.Coordinator.Metrics(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(text)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintf(w, "# HELP nocsim_results_queries_total API queries answered by this results service.\n# TYPE nocsim_results_queries_total counter\nnocsim_results_queries_total %d\n", st.Queries)
		fmt.Fprintf(w, "# HELP nocsim_results_render_cache_hits_total Table renders served from the fingerprint-keyed cache.\n# TYPE nocsim_results_render_cache_hits_total counter\nnocsim_results_render_cache_hits_total %d\n", st.CacheHits)
		fmt.Fprintf(w, "# HELP nocsim_results_render_cache_misses_total Table renders that had to run.\n# TYPE nocsim_results_render_cache_misses_total counter\nnocsim_results_render_cache_misses_total %d\n", st.CacheMisses)
		fmt.Fprintf(w, "# HELP nocsim_results_plans Plans in the store.\n# TYPE nocsim_results_plans gauge\nnocsim_results_plans %d\n", st.Plans)
		fmt.Fprintf(w, "# HELP nocsim_results_points Points in the store.\n# TYPE nocsim_results_points gauge\nnocsim_results_points %d\n", st.Points)
	})
	return mux
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
