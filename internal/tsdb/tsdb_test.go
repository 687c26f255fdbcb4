package tsdb

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
)

// segmentFiles lists the log's segment files in dir, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func mkPoint(ts int64, counters map[string]int64, gauges map[string]float64) Point {
	p := Point{TsNs: ts, Counters: map[string]int64{}, Gauges: map[string]float64{}, Histograms: map[string]telemetry.HistogramStats{}}
	for k, v := range counters {
		p.Counters[k] = v
	}
	for k, v := range gauges {
		p.Gauges[k] = v
	}
	return p
}

func histStats(obs ...time.Duration) telemetry.HistogramStats {
	en := &atomic.Bool{}
	en.Store(true)
	h := newTestHistogram(en)
	for _, d := range obs {
		h.Observe(d)
	}
	return h.Stats()
}

// newTestHistogram adapts telemetry's constructor (unexported there) via
// a registry.
func newTestHistogram(_ *atomic.Bool) *telemetry.Histogram {
	return telemetry.New().Histogram("h")
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p1 := mkPoint(1000, map[string]int64{"a": 5, `req{op="x"}`: 2}, map[string]float64{"g": 1.5})
	p1.Histograms["lat"] = histStats(time.Millisecond, 2*time.Millisecond)
	p2 := mkPoint(2000, map[string]int64{"a": 9, `req{op="x"}`: 2, "new": 1}, map[string]float64{"g": -3.25})
	p2.Histograms["lat"] = histStats(time.Millisecond, 2*time.Millisecond, 50*time.Millisecond)

	enc := newEncoder()
	rec1 := encodePoint(nil, p1, enc, true)
	enc.observe(p1)
	rec2 := encodePoint(nil, p2, enc, false)
	enc.observe(p2)

	dec := newDecoder()
	got1, err := dec.decode(rec1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := dec.decode(rec2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ got, want Point }{{got1, p1}, {got2, p2}} {
		if tc.got.TsNs != tc.want.TsNs {
			t.Fatalf("ts = %d, want %d", tc.got.TsNs, tc.want.TsNs)
		}
		if !reflect.DeepEqual(tc.got.Counters, tc.want.Counters) {
			t.Fatalf("counters = %v, want %v", tc.got.Counters, tc.want.Counters)
		}
		if !reflect.DeepEqual(tc.got.Gauges, tc.want.Gauges) {
			t.Fatalf("gauges = %v, want %v", tc.got.Gauges, tc.want.Gauges)
		}
		if !reflect.DeepEqual(tc.got.Histograms, tc.want.Histograms) {
			t.Fatalf("histograms = %v, want %v", tc.got.Histograms, tc.want.Histograms)
		}
	}
}

func TestDeltaRecordOmitsUnchangedSeries(t *testing.T) {
	p1 := mkPoint(1000, map[string]int64{"hot": 10, "cold": 3}, map[string]float64{"steady": 7})
	enc := newEncoder()
	full := encodePoint(nil, p1, enc, true)
	enc.observe(p1)

	p2 := mkPoint(2000, map[string]int64{"hot": 11, "cold": 3}, map[string]float64{"steady": 7})
	delta := encodePoint(nil, p2, enc, false)

	if len(delta) >= len(full) {
		t.Fatalf("delta record (%dB) not smaller than full record (%dB)", len(delta), len(full))
	}
	dec := newDecoder()
	if _, err := dec.decode(full); err != nil {
		t.Fatal(err)
	}
	got, err := dec.decode(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["cold"] != 3 || got.Counters["hot"] != 11 || got.Gauges["steady"] != 7 {
		t.Fatalf("unchanged series lost across delta: %v %v", got.Counters, got.Gauges)
	}
}

func TestAppendReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"c": i * 10}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rec := db2.Recovery(); rec.Points != 5 {
		t.Fatalf("recovered %d points, want 5", rec.Points)
	}
	p, ok := db2.Latest()
	if !ok || p.TsNs != 5000 || p.Counters["c"] != 50 {
		t.Fatalf("latest = %+v ok=%v, want ts 5000 c=50", p, ok)
	}
	// Appends keep working after reopen (the first one is a full record).
	if err := db2.Append(mkPoint(6000, map[string]int64{"c": 60}, nil)); err != nil {
		t.Fatal(err)
	}
	// prev falls back to the oldest retained point (c=10 at ts 1000), so
	// the whole-history delta is 60-10.
	if v, ok := db2.Delta("c", 0, 7000); !ok || v != 50 {
		t.Fatalf("Delta after reopen = %v ok=%v, want 50", v, ok)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"c": i}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Tear the tail: append garbage half-record to the active segment.
	seg := filepath.Join(dir, "00000001.wal")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	defer db2.Close()
	rec := db2.Recovery()
	if rec.Points != 3 {
		t.Fatalf("recovered %d points, want 3", rec.Points)
	}
	if rec.TruncatedBytes != 6 {
		t.Fatalf("TruncatedBytes = %d, want 6", rec.TruncatedBytes)
	}
}

func TestCorruptSealedSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SegmentBytes: 64, Retain: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"counter.series.name": i}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	// Flip a byte mid-way through the FIRST (sealed) segment.
	seg := filepath.Join(dir, "00000001.wal")
	data, _ := os.ReadFile(seg)
	data[len(data)/2] ^= 0xff
	os.WriteFile(seg, data, 0o644)

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt sealed segment must fail Open")
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SegmentBytes: 128, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := int64(1); i <= 60; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"some.counter.with.a.long.name": i * 7}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	segs := segmentFiles(t, dir)
	if len(segs) > 3 { // 2 sealed + active
		t.Fatalf("retention kept %d segments, want <= 3", len(segs))
	}
	st := db.Stats()
	if st.Segments != len(segs) {
		t.Fatalf("Stats.Segments = %d, disk has %d", st.Segments, len(segs))
	}
	if st.Points != 60 {
		t.Fatalf("Stats.Points = %d, want 60 (memory mirror independent of disk retention)", st.Points)
	}
	// Each surviving segment opens with a full record: reopen decodes
	// without the deleted segments.
	db.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	p, ok := db2.Latest()
	if !ok || p.Counters["some.counter.with.a.long.name"] != 60*7 {
		t.Fatalf("latest after retention reopen = %+v", p)
	}
}

// TestEverySegmentDecodesAlone: after rotations, retention and a reopen,
// each surviving segment opens with a full record, so it decodes without
// the segments before it — what retention relies on. A series that never
// changes is written only by full records, so it survives only if they
// lead every segment.
func TestEverySegmentDecodesAlone(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 160, Retain: 3}
	appendRange := func(from, to int64) {
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i <= to; i++ {
			p := mkPoint(i*1000, map[string]int64{"c": i * 7, "quiet": 1}, map[string]float64{"g": float64(i) / 4})
			if err := db.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendRange(1, 40)
	appendRange(41, 80)

	segs := segmentFiles(t, dir)
	if len(segs) != 4 { // 3 sealed + active
		t.Fatalf("retention kept %d segments, want 4", len(segs))
	}
	for _, seg := range segs {
		alone := t.TempDir()
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(alone, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(alone, Options{})
		if err != nil {
			t.Fatalf("segment %s alone: %v", filepath.Base(seg), err)
		}
		if n := db.Recovery().Points; n == 0 {
			t.Fatalf("segment %s alone decoded no points", filepath.Base(seg))
		}
		for _, s := range db.Series("c", 0, 1<<62) {
			i := s.TsNs / 1000
			p, _ := db.EdgeBefore(s.TsNs)
			if s.Value != float64(i*7) || p.Counters["quiet"] != 1 || p.Gauges["g"] != float64(i)/4 {
				t.Fatalf("segment %s alone: point %d decoded as %+v", filepath.Base(seg), i, p)
			}
		}
		db.Close()
	}
}

// TestUndecodableSampleFailsOpen: a record whose checksum is valid but
// whose payload is not a sample is damage a torn write cannot explain,
// so Open refuses the history with ErrCorrupt.
func TestUndecodableSampleFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"c": i}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{9, 1, 0}); err != nil { // kind 9 is no sample
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an undecodable sample = %v, want ErrCorrupt", err)
	}
}

// TestMirrorKeepsFullWindow: the in-memory mirror is bounded by age, not
// by count. At a 100ms cadence a 10-minute window is 6,001 points; the
// far edge must sit exactly one window back, with everything older
// evicted.
func TestMirrorKeepsFullWindow(t *testing.T) {
	const step = 100 * time.Millisecond
	db, err := Open("", Options{Window: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7000 // 11m40s of history
	for i := int64(0); i < n; i++ {
		if err := db.Append(mkPoint(i*step.Nanoseconds(), map[string]int64{"c": i}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	latest, _ := db.Latest()
	edge, _ := db.EdgeBefore(latest.TsNs - (10 * time.Minute).Nanoseconds())
	if back := time.Duration(latest.TsNs - edge.TsNs); back != 10*time.Minute {
		t.Fatalf("EdgeBefore(latest−10m) reaches back %v, want 10m", back)
	}
	st := db.Stats()
	if st.OldestNs != edge.TsNs || st.Points != 6001 {
		t.Fatalf("mirror keeps %d points from %dns, want 6001 from the edge at %dns", st.Points, st.OldestNs, edge.TsNs)
	}
	if prev, cur, span := db.Window(10 * time.Minute); prev.TsNs != edge.TsNs || cur.TsNs != latest.TsNs || span != 6001 {
		t.Fatalf("Window(10m) = [%d, %d] over %d points, want [%d, %d] over 6001", prev.TsNs, cur.TsNs, span, edge.TsNs, latest.TsNs)
	}
}

// TestConcurrentAppendAndWindow: readers race an appender whose every
// append evicts; each window they resolve must still be ordered and no
// wider than one window plus one step. Run under -race.
func TestConcurrentAppendAndWindow(t *testing.T) {
	const step, window = int64(10 * time.Millisecond), time.Second
	db, err := Open("", Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				prev, cur, n := db.Window(window)
				if n > 0 && (prev.TsNs > cur.TsNs || cur.TsNs-prev.TsNs > window.Nanoseconds()+step) {
					t.Errorf("window [%d, %d] over %d points is out of order or too wide", prev.TsNs, cur.TsNs, n)
					return
				}
				db.Series("c", 0, cur.TsNs)
				db.Stats()
			}
		}()
	}
	for i := int64(0); i < 2000; i++ {
		if err := db.Append(mkPoint(i*step, map[string]int64{"c": i}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if st := db.Stats(); st.Points != 101 {
		t.Fatalf("mirror keeps %d points, want 101 (one 1s window at 10ms)", st.Points)
	}
}

// TestMemoryOnlyStore: an empty dir keeps the mirror only — appends and
// queries work as on disk, nothing is written, and Sync/Close are no-ops.
func TestMemoryOnlyStore(t *testing.T) {
	db, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, n := db.Window(time.Minute); n != 0 {
		t.Fatalf("empty store's window spans %d points", n)
	}
	for i := int64(1); i <= 3; i++ {
		if err := db.Append(mkPoint(i*int64(time.Second), map[string]int64{"c": i * 10}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if d, ok := db.Delta("c", 0, 3*int64(time.Second)); !ok || d != 20 {
		t.Fatalf("Delta = %v ok=%v, want 20", d, ok)
	}
	st := db.Stats()
	if st.Segments != 0 || st.SizeBytes != 0 || st.Points != 3 {
		t.Fatalf("Stats = %+v, want 0 segments, 0 bytes, 3 points", st)
	}
	if rec := db.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("Recovery = %+v, want zero", rec)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderPointDropped(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Append(mkPoint(5000, map[string]int64{"c": 1}, nil))
	db.Append(mkPoint(4000, map[string]int64{"c": 99}, nil))
	p, _ := db.Latest()
	if p.TsNs != 5000 || p.Counters["c"] != 1 {
		t.Fatalf("out-of-order point was not dropped: %+v", p)
	}
}

func TestEdgeBeforeSemantics(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok := db.EdgeBefore(100); ok {
		t.Fatal("empty store reported an edge")
	}
	for _, ts := range []int64{1000, 2000, 3000} {
		db.Append(mkPoint(ts, map[string]int64{"c": ts}, nil))
	}
	// Exact hit, between points, after the last, before the first (oldest
	// fallback — the tracker's warm-up semantics).
	for _, tc := range []struct{ cutoff, want int64 }{
		{2000, 2000}, {2500, 2000}, {9999, 3000}, {500, 1000},
	} {
		p, ok := db.EdgeBefore(tc.cutoff)
		if !ok || p.TsNs != tc.want {
			t.Fatalf("EdgeBefore(%d) = %d ok=%v, want %d", tc.cutoff, p.TsNs, ok, tc.want)
		}
	}
}

func TestRateDeltaQueries(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sec := int64(time.Second)
	for i := int64(0); i <= 10; i++ {
		db.Append(mkPoint(i*sec, map[string]int64{"reqs": i * 100}, map[string]float64{"temp": float64(20 + i)}))
	}
	if v, ok := db.Delta("reqs", 0, 10*sec); !ok || v != 1000 {
		t.Fatalf("Delta(reqs) = %v ok=%v, want 1000", v, ok)
	}
	if v, ok := db.Rate("reqs", 0, 10*sec); !ok || v != 100 {
		t.Fatalf("Rate(reqs) = %v ok=%v, want 100/s", v, ok)
	}
	if v, ok := db.Delta("temp", 0, 10*sec); !ok || v != 10 {
		t.Fatalf("Delta(temp) = %v ok=%v, want 10 (gauges are signed)", v, ok)
	}
	if _, ok := db.Rate("temp", 0, 10*sec); ok {
		t.Fatal("gauges must not report a rate")
	}
	if _, ok := db.Rate("nope", 0, 10*sec); ok {
		t.Fatal("unknown series must not report a rate")
	}
}

// TestCounterResetCountsFromZero: a counter that drops was reset (the
// daemon restarted), so its new value is the restarted process's count.
func TestCounterResetCountsFromZero(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sec := int64(time.Second)
	db.Append(mkPoint(1*sec, map[string]int64{"c": 500}, nil))
	db.Append(mkPoint(2*sec, map[string]int64{"c": 3}, nil)) // daemon restarted
	if v, ok := db.Delta("c", 0, 3*sec); !ok || v != 3 {
		t.Fatalf("Delta across reset = %v ok=%v, want 3", v, ok)
	}
	if v, ok := db.Rate("c", 0, 3*sec); !ok || v != 3 {
		t.Fatalf("Rate across reset = %v ok=%v, want 3/s", v, ok)
	}
}

// TestIncreaseAcrossRestart: 90 and 100 from one process, then 16 and 19
// from its restarted successor, increase by 10 + 16 + 3 = 29 — for a
// counter and for a histogram bucket alike — where the window's edges
// alone (19 − 90) would read 0.
func TestIncreaseAcrossRestart(t *testing.T) {
	db, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	minute := int64(time.Minute)
	bucket := histStats(time.Millisecond).Buckets[0]
	for i, v := range []int64{90, 100, 16, 19} {
		p := mkPoint(int64(i)*minute, map[string]int64{"c": v}, nil)
		b := bucket
		b.Count = v
		p.Histograms["lat"] = telemetry.HistogramStats{Count: v, Buckets: []telemetry.BucketCount{b}}
		if err := db.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := db.Delta("c", 0, 3*minute); !ok || v != 29 {
		t.Fatalf("Delta = %v ok=%v, want 29", v, ok)
	}
	if v, ok := db.Rate("c", 0, 3*minute); !ok || v != 29.0/180 {
		t.Fatalf("Rate = %v ok=%v, want 29 per 3m", v, ok)
	}
	h, ok := db.HistogramDelta("lat", 0, 3*minute)
	if !ok || h.Count != 29 || len(h.Buckets) != 1 || h.Buckets[0].Count != 29 || h.Buckets[0].LowNs != bucket.LowNs {
		t.Fatalf("HistogramDelta = %+v ok=%v, want 29 observations in bucket %d", h, ok, bucket.LowNs)
	}
	// A window from the second point on starts at 100: 16 + 3.
	if v, _ := db.Delta("c", minute, 3*minute); v != 19 {
		t.Fatalf("Delta from the second point = %v, want 19", v)
	}
}

func TestQuantileOverTime(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sec := int64(time.Second)

	reg := telemetry.New()
	h := reg.Histogram("lat")
	add := func(ts int64) {
		p := mkPoint(ts, nil, nil)
		p.Histograms["lat"] = h.Stats()
		db.Append(p)
	}
	// Baseline point before any traffic, then one point per interval.
	add(1 * sec)
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // fast interval
	}
	add(2 * sec)
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Millisecond) // slow interval
	}
	add(3 * sec)

	// A window covering only the slow interval sees only the slow burst.
	p99, ok := db.QuantileOverTime("lat", 0.99, 2*sec, 3*sec)
	if !ok {
		t.Fatal("window reported empty")
	}
	if p99 < int64(50*time.Millisecond) {
		t.Fatalf("p99 = %v, want ~100ms (fast interval must be windowed out)", time.Duration(p99))
	}
	// The full window mixes both: rank-100 of 200 falls in the fast bucket.
	p50, ok := db.QuantileOverTime("lat", 0.5, 1*sec, 3*sec)
	if !ok {
		t.Fatal("full window reported empty")
	}
	if p50 > int64(10*time.Millisecond) {
		t.Fatalf("p50 = %v, want ~1ms bucket", time.Duration(p50))
	}
	// A window holding one point recorded nothing, whatever the
	// histogram's lifetime count.
	if _, ok := db.QuantileOverTime("lat", 0.99, 3*sec, 3*sec); ok {
		t.Fatal("a one-point window reported a quantile")
	}
	if _, ok := db.QuantileOverTime("nope", 0.99, 0, 3*sec); ok {
		t.Fatal("unknown histogram must not report a quantile")
	}
}

func TestSeriesSamplesAndNames(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sec := int64(time.Second)
	reg := telemetry.New()
	h := reg.Histogram("lat")
	for i := int64(1); i <= 5; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
		p := mkPoint(i*sec, map[string]int64{"c": i}, map[string]float64{"g": float64(i) / 2})
		p.Histograms["lat"] = h.Stats()
		db.Append(p)
	}
	s := db.Series("c", 2*sec, 4*sec)
	if len(s) != 3 || s[0].Value != 2 || s[2].Value != 4 {
		t.Fatalf("Series(c) = %+v, want values 2..4", s)
	}
	hs := db.Series("lat", 0, 10*sec)
	if len(hs) != 5 {
		t.Fatalf("histogram series has %d samples, want 5", len(hs))
	}
	for i := 1; i < len(hs); i++ {
		if hs[i].Value < hs[i-1].Value {
			t.Fatalf("p99 sparkline not monotone for growing max: %+v", hs)
		}
	}
	names := db.SeriesNames()
	want := []string{"c", "g", "lat"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("SeriesNames = %v, want %v", names, want)
	}
}

func TestFromSnapshotCarriesLabeledSeries(t *testing.T) {
	reg := telemetry.New()
	reg.CounterVec("req", "op").With("recommend").Add(5)
	p := FromSnapshot(reg.Snapshot())
	if p.Counters[`req{op="recommend"}`] != 5 {
		t.Fatalf("labeled series lost in FromSnapshot: %v", p.Counters)
	}
}
