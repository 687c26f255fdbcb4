package telemetry

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Conformance test for the Prometheus text exposition format (0.0.4): a
// registry loaded with adversarial names, label values, and help strings
// must render output every line of which parses under the exposition
// grammar. This is the contract a real Prometheus scraper holds us to —
// one unescaped quote or newline poisons the whole scrape.

var (
	promMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parsePromLine splits a sample line into name, label pairs, and value,
// honoring the escape rules inside quoted label values. It fails the test
// on any grammar violation.
func parsePromLine(t *testing.T, line string) (name string, labels map[string]string, value string) {
	t.Helper()
	labels = map[string]string{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("no separator in sample line %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		j := 1
		for rest[j] != '}' {
			// label name
			k := j
			for rest[j] != '=' {
				j++
			}
			lname := rest[k:j]
			if !promLabelNameRe.MatchString(lname) {
				t.Fatalf("bad label name %q in %q", lname, line)
			}
			j++ // '='
			if rest[j] != '"' {
				t.Fatalf("label value not quoted in %q", line)
			}
			j++
			var val strings.Builder
			for rest[j] != '"' {
				if rest[j] == '\\' {
					j++
					switch rest[j] {
					case '\\', '"':
						val.WriteByte(rest[j])
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("illegal escape \\%c in %q", rest[j], line)
					}
				} else if rest[j] == '\n' {
					t.Fatalf("raw newline inside label value in %q", line)
				} else {
					val.WriteByte(rest[j])
				}
				j++
			}
			labels[lname] = val.String()
			j++ // closing '"'
			if rest[j] == ',' {
				j++
			}
		}
		rest = rest[j+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		t.Fatalf("no space before value in %q", line)
	}
	value = strings.TrimSpace(rest)
	return name, labels, value
}

func TestPrometheusExpositionConformance(t *testing.T) {
	r := New()
	r.Counter("plain.counter").Add(7)
	r.SetHelp("plain.counter", "a help string with \\backslash\\ and\nnewline and \"quotes\"")
	r.Gauge("some.gauge").Set(3.5)
	r.Histogram("lat.hist").Observe(time.Millisecond)
	r.SetHelp("lat.hist.seconds", "latency\nof things")
	r.SetInfo("build.info", map[string]string{
		"version": `v1.2.3 "dirty"`,
		"path":    `C:\jarvis\bin`,
	})
	cv := r.CounterVec("ops.total", "op", "status")
	cv.With(`recommend`, `ok`).Add(3)
	cv.With("multi\nline", `back\slash`).Inc()
	cv.With(`quo"te`, "plain").Inc()
	r.GaugeVec("lag.records", "peer").With("10.0.0.2:7777").Set(42)
	r.HistogramVec("op.lat", "op").With(`ev"il`).Observe(2 * time.Millisecond)
	r.GaugeFunc("fn.gauge", func() float64 { return 1 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	typed := map[string]string{} // metric family -> kind
	var lastHelpName string
	sampleSeen := map[string]bool{} // family sample emitted (TYPE-before-sample check)

	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# HELP ") {
			restParts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if !promMetricNameRe.MatchString(restParts[0]) {
				t.Fatalf("bad metric name in HELP line %q", line)
			}
			if len(restParts) == 2 && strings.ContainsAny(restParts[1], "\n") {
				t.Fatalf("unescaped newline in HELP %q", line)
			}
			lastHelpName = restParts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			fam, kind := parts[2], parts[3]
			if !promMetricNameRe.MatchString(fam) {
				t.Fatalf("bad metric name in TYPE line %q", line)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown kind in %q", line)
			}
			if typed[fam] != "" {
				t.Fatalf("duplicate TYPE line for %s", fam)
			}
			if sampleSeen[fam] {
				t.Fatalf("TYPE line for %s after its samples", fam)
			}
			if lastHelpName != "" && lastHelpName != fam {
				t.Fatalf("HELP for %s not adjacent to its TYPE line", lastHelpName)
			}
			lastHelpName = ""
			typed[fam] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		name, labels, value := parsePromLine(t, line)
		if !promMetricNameRe.MatchString(name) {
			t.Fatalf("bad sample metric name %q", name)
		}
		// Map histogram sample suffixes back to their family.
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				fam = base
				break
			}
		}
		kind, ok := typed[fam]
		if !ok {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
		sampleSeen[fam] = true
		if kind == "histogram" && strings.HasSuffix(name, "_bucket") {
			if _, ok := labels["le"]; !ok {
				t.Fatalf("histogram bucket without le label: %q", line)
			}
		}
		if value != "+Inf" && value != "-Inf" && value != "NaN" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("unparseable value %q in %q", value, line)
			}
		}
	}

	// The adversarial label values must round-trip through escaping.
	wantValues := []string{"multi\nline", `back\slash`, `quo"te`, `ev"il`, `v1.2.3 "dirty"`, `C:\jarvis\bin`}
	for _, want := range wantValues {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if !strings.Contains(line, "{") || strings.HasPrefix(line, "#") {
				continue
			}
			_, labels, _ := parsePromLine(t, line)
			for _, v := range labels {
				if v == want {
					found = true
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("label value %q did not round-trip through the exposition", want)
		}
	}

	// Help strings render escaped on one line.
	if !strings.Contains(out, `# HELP plain_counter a help string with \\backslash\\ and\nnewline and "quotes"`) {
		t.Errorf("help string not escaped as expected; output:\n%s", out)
	}
}
