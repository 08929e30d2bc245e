package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricTablesMatchBenchmarkJSON checks that the metrics the program
// reports are exactly those BENCHMARK.json declares, with the same units,
// and that every name is legal and used once.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, allLayerDefs())
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), allLayerDefs()...) {
		if !legalName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is illegal or repeated", d.name)
		}
		seen[d.name] = true
	}
}

// testScales are the self-test's population scales. paper-query's is the
// smallest at which the index outgrows its scaled buffer enough for the
// paper's claim (PEB reads no more pages than the spatial baseline) to
// hold; below it the baseline's single spatial scan is cheaper.
var testScales = map[string]float64{"paper-query": 0.25, "durable-mixed": 0.05, "sharded-skew": 0.05}

// TestTinyRuns runs every workload at a tiny scale, untraced and traced,
// and checks that every output check passes, every metric is reported
// with its unit, and the traced pass recorded spans in every layer.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	layers := map[string]bool{}
	for _, wl := range []string{"paper-query", "durable-mixed", "sharded-skew"} {
		t.Run(wl, func(t *testing.T) {
			out, scale := t.TempDir(), testScales[wl]
			res, err := run(wl, 1, 300*time.Millisecond, false, scale, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd, true)

			res, err = run(wl, 1, 300*time.Millisecond, true, scale, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: %d of %d failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, allLayerDefs(), false)
			spans, err := os.ReadFile(filepath.Join(out, "traces", wl+"-seed1.jsonl"))
			if err != nil {
				t.Fatalf("traced run wrote no spans: %v", err)
			}
			for _, line := range bytes.Split(bytes.TrimSpace(spans), []byte("\n")) {
				var s span
				if err := json.Unmarshal(line, &s); err != nil {
					t.Fatalf("span %q: %v", line, err)
				}
				layers[s.Layer] = true
			}
		})
	}
	for _, l := range []string{"zcurve", "btree", "store", "policy", "core", "peb", "cq", "sharded", "spatialidx", "go"} {
		if !layers[l] {
			t.Errorf("no traced run recorded a span in layer %s", l)
		}
	}
}

func checkMetrics(t *testing.T, res *resultOut, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
		case nonZero && m.Value == 0:
			t.Errorf("end-to-end metric %s is 0", d.name)
		}
	}
}
