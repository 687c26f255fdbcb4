// Package tsdb is an embedded, per-daemon time-series store for telemetry
// snapshots: an in-memory mirror the query side (range, rate, delta,
// quantile-over-time) serves from, bounded to one window by age, and —
// when opened on a directory — the delta-encoded samples kept in a
// wal.Log.
//
// The daemon appends one Point — every counter, gauge, and histogram in
// the registry, labeled series included — every -ts-interval. That turns
// the point-in-time /metrics scrape into history: SLO burn rates score
// their windows from the store, alert rules read their deltas from it,
// `jarvisctl top` sparklines p99s from it, and with a directory a restart
// loses at most the tail the crash tore. Opened without a directory the
// store keeps the mirror only; the query code is the same in both modes.
//
// # On-disk format
//
// The storage is internal/wal's segmented log, opened with SyncOnRotate
// (metric history is derived data: losing the last interval to power
// loss is acceptable) and this package's segment size and retention, so
// framing, checksums, segment naming, torn-tail truncation, sealed-segment
// corruption and retention are the journal's. Each record is one sample:
//
//	kind   u8      1 = full, 2 = delta
//	ts     uvarint unix nanoseconds
//	count  uvarint series entries that follow
//	entry: id uvarint; a first-seen id is followed by its declaration
//	       (type u8, name len uvarint, name bytes); then the value,
//	       encoded as a zigzag-varint delta against the decoder's last
//	       value for that id (counters, histogram scalars and bucket
//	       counts) or as 8 raw float64 bits (gauges).
//
// A full record resets the decoder — dictionary and last-values — and
// then lists every live series, so its deltas are absolute values. A
// delta record lists only the series that changed since the previous
// record, so a quiet interval costs a few dozen bytes, not a full
// snapshot. The store owns rotation so that every segment opens with a
// full record: it rotates the log itself when a sample would not fit the
// active segment (wal.Log.Fits), and the first append after Open is full.
// Each segment therefore decodes on its own, and retention can delete old
// segments without orphaning the deltas in newer ones.
//
// # Recovery
//
// Open replays the log oldest-first through the decoder, rebuilding the
// in-memory mirror. The log truncates a torn tail and reports damage in a
// sealed segment as wal.ErrCorrupt; a checksum-valid sample that does not
// decode fails Open with ErrCorrupt.
package tsdb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
)

// ErrCorrupt reports a sample whose frame is intact but whose payload
// does not decode — damage a torn write cannot explain.
var ErrCorrupt = errors.New("tsdb: sample does not decode")

// Point is one decoded sample: every series' value at one instant.
type Point struct {
	TsNs       int64
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]telemetry.HistogramStats
}

// FromSnapshot projects a registry snapshot onto a Point (events and
// infos are not time series and are dropped).
func FromSnapshot(s telemetry.Snapshot) Point {
	return Point{
		TsNs:       s.UnixNs,
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
}

// Options tunes a DB. The zero value is usable: 1 MiB segments, retain 8
// sealed segments, mirror a 10-minute window in memory.
type Options struct {
	// SegmentBytes rotates the active segment before a sample would grow
	// it past this size (default 1 MiB).
	SegmentBytes int64
	// Retain caps sealed segments kept after rotation (default 8; <0
	// keeps everything).
	Retain int
	// Window bounds the in-memory mirror the query side reads by age: it
	// keeps the newest point at or before newest−Window plus every point
	// after it, so a query over the newest Window always finds its far
	// edge (default 10m). Disk retention is an independent bound.
	Window time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Retain == 0 {
		o.Retain = 8
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Minute
	}
	return o
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	Segments       int
	Points         int
	TruncatedBytes int64
}

// Stats is the live footprint /healthz reports.
type Stats struct {
	Segments    int   `json:"segments"`
	SizeBytes   int64 `json:"sizeBytes"`
	Points      int   `json:"points"`
	SeriesCount int   `json:"seriesCount"`
	OldestNs    int64 `json:"oldestNs,omitempty"`
	NewestNs    int64 `json:"newestNs,omitempty"`
}

// DB is one daemon's metric history. All methods are safe for concurrent
// use.
type DB struct {
	opts Options
	// log holds the samples; nil for a memory-only store.
	log *wal.Log
	rec RecoveryStats

	mu sync.Mutex
	// points is the in-memory mirror, ascending by TsNs.
	points []Point

	// enc is the delta baseline for the active segment; nil forces the
	// next append to write a full record.
	enc     *encoder
	scratch []byte
}

// Open recovers any history under dir into the in-memory mirror and
// returns a DB ready to append. An empty dir opens a memory-only store:
// nothing written, nothing to recover.
func Open(dir string, opts Options) (*DB, error) {
	db := &DB{opts: opts.withDefaults()}
	if dir == "" {
		return db, nil
	}
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: db.opts.SegmentBytes,
		Retain:       db.opts.Retain,
		Policy:       wal.SyncOnRotate,
	})
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	dec := newDecoder()
	err = log.Replay(func(rec []byte) error {
		p, err := dec.decode(rec)
		if err != nil {
			return fmt.Errorf("%w: record %d", ErrCorrupt, db.rec.Points+1)
		}
		db.appendPointLocked(p)
		db.rec.Points++
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	wr := log.Recovery()
	db.rec.Segments, db.rec.TruncatedBytes = wr.Segments, wr.TruncatedBytes
	db.log = log
	return db, nil
}

// Recovery reports what Open found (and repaired) on disk.
func (db *DB) Recovery() RecoveryStats { return db.rec }

// Append stores one snapshot. Points must arrive in non-decreasing
// timestamp order; an out-of-order point is dropped (clock steps during
// failover are not worth corrupting the history for).
func (db *DB) Append(p Point) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n := len(db.points); n > 0 && p.TsNs < db.points[n-1].TsNs {
		return nil
	}
	if db.log != nil {
		if err := db.writeLocked(p); err != nil {
			return err
		}
	}
	db.appendPointLocked(p)
	return nil
}

// writeLocked appends p's sample to the log: a delta against the active
// segment's baseline, or a full record when the segment has none yet or
// the sample would overflow it, in which case the log rotates first.
func (db *DB) writeLocked(p Point) error {
	full := db.enc == nil
	if full {
		db.enc = newEncoder()
	}
	payload := encodePoint(db.scratch[:0], p, db.enc, full)
	if !db.log.Fits(len(payload)) {
		if err := db.log.Rotate(); err != nil {
			db.enc = nil
			return fmt.Errorf("tsdb: %w", err)
		}
		db.enc = newEncoder()
		payload = encodePoint(payload[:0], p, db.enc, true)
	}
	db.scratch = payload[:0]
	if err := db.log.Append(payload); err != nil {
		// The encoder may have assigned ids the log never stored.
		db.enc = nil
		return fmt.Errorf("tsdb: %w", err)
	}
	db.enc.observe(p)
	return nil
}

// Sync flushes the active segment to stable storage. The append path does
// not fsync per sample, so callers with stricter needs (tests, clean
// shutdown) sync explicitly.
func (db *DB) Sync() error {
	if db.log == nil {
		return nil
	}
	return db.log.Sync()
}

// Close syncs and closes the log (a no-op for a memory-only store).
func (db *DB) Close() error {
	if db.log == nil {
		return nil
	}
	return db.log.Close()
}

// Stats reports the store's live footprint.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := Stats{Points: len(db.points)}
	if db.log != nil {
		s.Segments, s.SizeBytes = db.log.Segments(), db.log.SizeBytes()
	}
	if n := len(db.points); n > 0 {
		s.OldestNs = db.points[0].TsNs
		s.NewestNs = db.points[n-1].TsNs
		last := db.points[n-1]
		s.SeriesCount = len(last.Counters) + len(last.Gauges) + len(last.Histograms)
	}
	return s
}

// appendPointLocked mirrors p and evicts every point older than the
// window's far edge: the newest point at or before p.TsNs−Window stays.
func (db *DB) appendPointLocked(p Point) {
	db.points = append(db.points, p)
	cutoff := p.TsNs - db.opts.Window.Nanoseconds()
	i := 0
	for i+1 < len(db.points) && db.points[i+1].TsNs <= cutoff {
		i++
	}
	clear(db.points[:i]) // drop the evicted points' maps for the GC
	db.points = db.points[i:]
}
