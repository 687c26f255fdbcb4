package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// jarvisctl top is the fleet view: it polls every daemon's debug listener
// concurrently (-debug-addr takes a comma-separated list), merges the
// /healthz role/lag/alert state with two /debug/tsdb range queries — the
// labeled recommend throughput and the request-latency p99 history — and
// renders one row per daemon. Live mode redraws every -interval;
// `-once -format json` emits a single machine-readable report instead,
// which is what the `make top` smoke probe scripts against.
//
// The tsdb queries degrade gracefully: a daemon whose range query fails
// still gets a row (role, lag) with dashes for rate and sparkline.

// topRateSeries is the labeled series the throughput column reads. Flat
// snapshot names address vec children, so the fleet view exercises the
// same addressing the SLO objectives use.
const topRateSeries = `jarvisd.requests{op="recommend"}`

// topLatencySeries feeds the p99 sparkline; fn=raw on a histogram series
// yields one p99 sample per stored snapshot.
const topLatencySeries = "jarvisd.request.latency"

// topHealth mirrors the /healthz fields the fleet view renders.
type topHealth struct {
	Status      string `json:"status"`
	Role        string `json:"role"`
	Replication *struct {
		FollowAddr string  `json:"followAddr"`
		Connected  bool    `json:"connected"`
		LagRecords float64 `json:"lagRecords"`
	} `json:"replication,omitempty"`
	Violations   int   `json:"violations"`
	QueueDepth   int64 `json:"queueDepth"`
	AlertsFiring []struct {
		Rule     string `json:"rule"`
		Severity string `json:"severity"`
	} `json:"alertsFiring,omitempty"`
	SLOBurn map[string]float64 `json:"sloBurn,omitempty"`
	TSDB    *struct {
		Points    int   `json:"points"`
		SizeBytes int64 `json:"sizeBytes"`
	} `json:"tsdb,omitempty"`
	TelemetrySeries        int   `json:"telemetrySeries"`
	TelemetryLabelsDropped int64 `json:"telemetryLabelsDropped"`
}

// topQueryBody mirrors the /debug/tsdb query response.
type topQueryBody struct {
	OK      bool    `json:"ok"`
	Value   float64 `json:"value"`
	Samples []struct {
		TsNs  int64   `json:"tsNs"`
		Value float64 `json:"value"`
	} `json:"samples"`
}

// topDaemon is one daemon's row, also the -format json element.
type topDaemon struct {
	Addr                   string             `json:"addr"`
	Err                    string             `json:"error,omitempty"`
	Role                   string             `json:"role,omitempty"`
	Status                 string             `json:"status,omitempty"`
	Violations             int                `json:"violations,omitempty"`
	QueueDepth             int64              `json:"queueDepth,omitempty"`
	ReplicaConnected       bool               `json:"replicaConnected,omitempty"`
	ReplicaLagRecords      float64            `json:"replicaLagRecords,omitempty"`
	RecommendPerSec        float64            `json:"recommendPerSec,omitempty"`
	RecommendRateOK        bool               `json:"recommendRateOk,omitempty"`
	P99Ns                  int64              `json:"p99Ns,omitempty"`
	P99SeriesNs            []float64          `json:"p99SeriesNs,omitempty"`
	AlertsFiring           []string           `json:"alertsFiring,omitempty"`
	SLOBurn                map[string]float64 `json:"sloBurn,omitempty"`
	TSDBPoints             int                `json:"tsdbPoints,omitempty"`
	TSDBSizeBytes          int64              `json:"tsdbSizeBytes,omitempty"`
	TelemetrySeries        int                `json:"telemetrySeries,omitempty"`
	TelemetryLabelsDropped int64              `json:"telemetryLabelsDropped,omitempty"`
}

// topReport is the -format json body: one poll of the whole fleet.
type topReport struct {
	UnixNs  int64       `json:"unixNs"`
	Daemons []topDaemon `json:"daemons"`
}

// runTop polls the fleet once per interval and renders it until
// interrupted; with once it renders a single poll and exits, non-zero if
// no daemon answered at all.
func runTop(addrs []string, timeout, interval time.Duration, once bool, format string, out io.Writer) error {
	if len(addrs) == 0 {
		return fmt.Errorf("-debug-addr is empty")
	}
	switch format {
	case "text", "json":
	default:
		return fmt.Errorf("unknown -format %q for top (want text or json)", format)
	}
	client := &http.Client{Timeout: timeout}
	first := true
	for {
		rep := pollFleet(client, addrs)
		if format == "json" {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			if !once && !first {
				fmt.Fprint(out, "\x1b[2J\x1b[H") // clear and re-home the live view
			}
			renderTop(out, rep)
		}
		if once {
			alive := 0
			for _, d := range rep.Daemons {
				if d.Err == "" {
					alive++
				}
			}
			if alive == 0 {
				return fmt.Errorf("no daemon answered (asked %s)", strings.Join(addrs, ", "))
			}
			return nil
		}
		first = false
		time.Sleep(interval)
	}
}

// pollFleet fetches every daemon concurrently; rows come back in the
// -debug-addr order regardless of who answered first.
func pollFleet(client *http.Client, addrs []string) topReport {
	rep := topReport{UnixNs: time.Now().UnixNano(), Daemons: make([]topDaemon, len(addrs))}
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			rep.Daemons[i] = pollDaemon(client, addr)
		}(i, addr)
	}
	wg.Wait()
	return rep
}

// pollDaemon assembles one daemon's row: /healthz (which answers 503 when
// degraded — still a valid report) plus the two tsdb range queries.
func pollDaemon(client *http.Client, addr string) topDaemon {
	d := topDaemon{Addr: addr}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		d.Err = err.Error()
		return d
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		d.Err = fmt.Sprintf("healthz returned %s", resp.Status)
		return d
	}
	var h topHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		d.Err = fmt.Sprintf("decode healthz: %v", err)
		return d
	}
	d.Role, d.Status = h.Role, h.Status
	d.Violations, d.QueueDepth = h.Violations, h.QueueDepth
	d.SLOBurn = h.SLOBurn
	d.TelemetrySeries = h.TelemetrySeries
	d.TelemetryLabelsDropped = h.TelemetryLabelsDropped
	if h.Replication != nil {
		d.ReplicaConnected = h.Replication.Connected
		d.ReplicaLagRecords = h.Replication.LagRecords
	}
	for _, a := range h.AlertsFiring {
		d.AlertsFiring = append(d.AlertsFiring, fmt.Sprintf("%s[%s]", a.Rule, a.Severity))
	}
	if h.TSDB != nil {
		d.TSDBPoints, d.TSDBSizeBytes = h.TSDB.Points, h.TSDB.SizeBytes
		if q, ok := topQuery(client, addr, topRateSeries, "rate"); ok {
			d.RecommendPerSec, d.RecommendRateOK = q.Value, q.OK
		}
		if q, ok := topQuery(client, addr, topLatencySeries, "raw"); ok {
			for _, s := range q.Samples {
				d.P99SeriesNs = append(d.P99SeriesNs, s.Value)
			}
			if n := len(q.Samples); n > 0 {
				d.P99Ns = int64(q.Samples[n-1].Value)
			}
		}
	}
	return d
}

// topQuery runs one /debug/tsdb range query; ok is false on any transport
// or status failure so a daemon without a store degrades to a bare row.
func topQuery(client *http.Client, addr, series, fn string) (topQueryBody, bool) {
	resp, err := client.Get("http://" + addr + "/debug/tsdb?series=" +
		url.QueryEscape(series) + "&fn=" + fn)
	if err != nil {
		return topQueryBody{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return topQueryBody{}, false
	}
	var q topQueryBody
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		return topQueryBody{}, false
	}
	return q, true
}

// sparkBlocks are the eight block heights the sparkline scales into.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width values scaled against their max. A
// flat series renders as all-minimum bars rather than disappearing.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkBlocks)-1))
		}
		b.WriteRune(sparkBlocks[idx])
	}
	return b.String()
}

// renderTop prints the fleet table plus per-daemon alert/burn detail
// lines for anything unhealthy.
func renderTop(out io.Writer, rep topReport) {
	fmt.Fprintf(out, "fleet at %s — %d daemon(s); rate=%s, p99=%s\n",
		time.Unix(0, rep.UnixNs).Format("15:04:05"), len(rep.Daemons),
		topRateSeries, topLatencySeries)
	fmt.Fprintf(out, "%-22s %-9s %-9s %5s %5s %6s %9s %10s %-12s %s\n",
		"ADDR", "ROLE", "STATUS", "VIOL", "QUEUE", "LAG", "REC/S", "P99", "P99 TREND", "ALERTS")
	for _, d := range rep.Daemons {
		if d.Err != "" {
			fmt.Fprintf(out, "%-22s %s\n", d.Addr, "UNREACHABLE: "+d.Err)
			continue
		}
		lag := "-"
		if d.Role == "follower" {
			lag = fmt.Sprintf("%.0f", d.ReplicaLagRecords)
		}
		rate := "-"
		if d.RecommendRateOK {
			rate = fmt.Sprintf("%.2f", d.RecommendPerSec)
		}
		p99 := "-"
		if d.P99Ns > 0 {
			p99 = time.Duration(d.P99Ns).Round(time.Microsecond).String()
		}
		alerts := "-"
		if len(d.AlertsFiring) > 0 {
			alerts = strings.Join(d.AlertsFiring, ",")
		}
		fmt.Fprintf(out, "%-22s %-9s %-9s %5d %5d %6s %9s %10s %-12s %s\n",
			d.Addr, d.Role, d.Status, d.Violations, d.QueueDepth, lag, rate, p99,
			sparkline(d.P99SeriesNs, 12), alerts)
	}
	// Burn rates over 1 are out of SLO; list them under the table so the
	// one-line rows stay scannable.
	for _, d := range rep.Daemons {
		var hot []string
		for name, burn := range d.SLOBurn {
			if burn > 1 {
				hot = append(hot, fmt.Sprintf("%s=%.2f", name, burn))
			}
		}
		if len(hot) > 0 {
			sort.Strings(hot)
			fmt.Fprintf(out, "  %s burning error budget: %s\n", d.Addr, strings.Join(hot, " "))
		}
		if d.TelemetryLabelsDropped > 0 {
			fmt.Fprintf(out, "  %s dropping labels: %d write(s) over the vec cardinality cap\n",
				d.Addr, d.TelemetryLabelsDropped)
		}
	}
}
