package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"jarvis/internal/tsdb"
)

// The daemon's metric history (internal/tsdb) hangs off the health tick:
// every TSInterval the loop appends one registry snapshot to the store,
// and the SLO tracker scores its window from it. /debug/tsdb serves range
// queries over the same store, so a ?series=...&fn=delta query over the
// tracker's span (to = the newest point, window = -slo-window) reproduces
// the number /debug/slo published — both sides resolve the identical
// (EdgeBefore, Latest) pair.

// openHistory opens the metric history: on disk under -tsdb, else in
// memory. The mirror keeps one SLO window either way. A directory that
// cannot open falls back to memory rather than refusing to start —
// metric history is derived data. So does the journal's directory: both
// logs name their segments NNNNNNNN.wal, so sharing it would interleave
// samples with journal records and let the journal's checkpoint resets
// delete the history.
func (s *server) openHistory() *tsdb.DB {
	opts := tsdb.Options{Window: s.cfg.SLOWindow}
	reason := "no -tsdb directory"
	switch {
	case s.cfg.TSDBDir == "":
	case sameDir(s.cfg.TSDBDir, s.cfg.WALDir):
		reason = "-tsdb names the -wal directory, whose segments it would share"
	default:
		db, err := tsdb.Open(s.cfg.TSDBDir, opts)
		if err == nil {
			if rs := db.Recovery(); rs.TruncatedBytes > 0 {
				s.cfg.Logf("jarvisd: tsdb recovery truncated %d torn bytes", rs.TruncatedBytes)
			}
			return db
		}
		reason = fmt.Sprintf("tsdb unavailable (%v)", err)
	}
	s.cfg.Logf("jarvisd: %s; metric history kept in memory", reason)
	db, _ := tsdb.Open("", opts) // a memory-only store cannot fail to open
	return db
}

// sameDir reports whether two directory flags name one directory.
func sameDir(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	return errA == nil && errB == nil && absA == absB
}

// tsdbIndex is the parameterless /debug/tsdb body: store footprint plus
// every series the newest point carries.
type tsdbIndex struct {
	IntervalMs int64      `json:"intervalMs"`
	Stats      tsdb.Stats `json:"stats"`
	Series     []string   `json:"series"`
}

// tsdbQuery is the /debug/tsdb?series=... body. Value carries the scalar
// result (rate per second, delta, or quantile nanoseconds); Samples the
// raw per-point values for fn=raw.
type tsdbQuery struct {
	Series  string        `json:"series"`
	Fn      string        `json:"fn"`
	FromNs  int64         `json:"fromNs"`
	ToNs    int64         `json:"toNs"`
	OK      bool          `json:"ok"`
	Value   float64       `json:"value,omitempty"`
	Samples []tsdb.Sample `json:"samples,omitempty"`
}

// handleTSDB serves the metric history. Without ?series it returns the
// index; with it, one range query:
//
//	/debug/tsdb?series=NAME&fn=rate|delta|p50|p95|p99|raw&window=5m
//	/debug/tsdb?series=NAME&fn=delta&from=<unixNs>&to=<unixNs>
//
// from/to default to [now−window, now] (window default 5m). Labeled
// series are addressed by their flat snapshot name, URL-escaped, e.g.
// series=jarvisd.requests%7Bop%3D%22recommend%22%7D.
func (s *server) handleTSDB(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	q := r.URL.Query()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")

	series := q.Get("series")
	if series == "" {
		doc := tsdbIndex{
			IntervalMs: s.cfg.TSInterval.Milliseconds(),
			Stats:      s.ts.Stats(),
			Series:     s.ts.SeriesNames(),
		}
		if err := enc.Encode(doc); err != nil {
			s.cfg.Logf("jarvisd: tsdb encode: %v", err)
		}
		return
	}

	window := 5 * time.Minute
	if ws := q.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			httpBadRequest(w, enc, "bad window %q", ws)
			return
		}
		window = d
	}
	now := time.Now().UnixNano()
	toNs, err := nsParam(q.Get("to"), now)
	if err != nil {
		httpBadRequest(w, enc, "bad to %q", q.Get("to"))
		return
	}
	fromNs, err := nsParam(q.Get("from"), toNs-window.Nanoseconds())
	if err != nil {
		httpBadRequest(w, enc, "bad from %q", q.Get("from"))
		return
	}

	fn := q.Get("fn")
	if fn == "" {
		fn = "raw"
	}
	resp := tsdbQuery{Series: series, Fn: fn, FromNs: fromNs, ToNs: toNs}
	switch fn {
	case "rate":
		resp.Value, resp.OK = s.ts.Rate(series, fromNs, toNs)
	case "delta":
		resp.Value, resp.OK = s.ts.Delta(series, fromNs, toNs)
	case "p50", "p95", "p99":
		qv := map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99}[fn]
		var ns int64
		ns, resp.OK = s.ts.QuantileOverTime(series, qv, fromNs, toNs)
		resp.Value = float64(ns)
	case "raw":
		resp.Samples = s.ts.Series(series, fromNs, toNs)
		resp.OK = len(resp.Samples) > 0
	default:
		httpBadRequest(w, enc, "unknown fn %q (want rate, delta, p50, p95, p99, or raw)", fn)
		return
	}
	if err := enc.Encode(resp); err != nil {
		s.cfg.Logf("jarvisd: tsdb encode: %v", err)
	}
}

// nsParam parses a unix-nanosecond query parameter, defaulting when
// absent.
func nsParam(v string, def int64) (int64, error) {
	if v == "" {
		return def, nil
	}
	return strconv.ParseInt(v, 10, 64)
}

func httpBadRequest(w http.ResponseWriter, enc *json.Encoder, format string, args ...any) {
	w.WriteHeader(http.StatusBadRequest)
	enc.Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
