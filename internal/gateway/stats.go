package gateway

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/dsp"
	"repro/internal/fleet"
)

// Snapshot is the daemon's observability surface: one JSON document
// answering "what is this gateway doing right now" — wire traffic,
// session-pool occupancy and recycling, per-subject meters and prefetch
// waste, the local block cache, and the backing store's WAL/fsync
// counters when the daemon can reach them.
type Snapshot struct {
	Label         string  `json:"label,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// WireSessions is the number of wire sessions currently open across
	// every client connection; Queries counts queries served over the
	// wire since start.
	WireSessions int64 `json:"wire_sessions"`
	Queries      int64 `json:"queries"`
	// Pool aggregates the fleet's session-pool telemetry.
	Pool fleet.PoolStats `json:"pool"`
	// Subjects carries each subject's meters, transfer counters and pool
	// occupancy.
	Subjects []fleet.SubjectStats `json:"subjects"`
	// Cache is the daemon's local block cache, when one fronts the store.
	Cache *dsp.CacheStats `json:"cache,omitempty"`
	// CacheHitRate flattens Cache's hit rate for dashboards.
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// Store is the backing dsp tier's snapshot (its own cache, WAL and
	// fsync counters), when the daemon can fetch it.
	Store *dsp.ServerStats `json:"store,omitempty"`
	// StoreError reports why Store is absent when fetching it failed —
	// a stats endpoint must degrade loudly, not silently.
	StoreError string `json:"store_error,omitempty"`
}

// Snapshot assembles the current observability snapshot.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Label:         s.label,
		UptimeSeconds: time.Since(s.started).Seconds(),
		WireSessions:  s.wireSessions.Load(),
		Queries:       s.queries.Load(),
		Pool:          s.fl.PoolStats(),
		Subjects:      s.fl.Stats(),
	}
	if s.CacheStats != nil {
		cs := s.CacheStats()
		snap.Cache = &cs
		snap.CacheHitRate = cs.HitRate()
	}
	if s.StoreStats != nil {
		st, err := s.StoreStats()
		if err != nil {
			snap.StoreError = err.Error()
		} else {
			snap.Store = st
		}
	}
	return snap
}

// StatsHandler serves the snapshot as JSON — the daemon mounts it at
// /stats on its HTTP listener.
func (s *Server) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Snapshot()); err != nil && s.Logf != nil {
			s.Logf("gateway: /stats encode: %v", err)
		}
	})
}
