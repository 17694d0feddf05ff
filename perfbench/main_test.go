package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// runTiny runs one workload at smoke-test size and returns its result line
// and tag line.
func runTiny(t *testing.T, workload, seed, trace string, tamper func(check, value string) string) (resultLine, map[string]any, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace,
		"--tiny", "--trace-dir", t.TempDir()}, &stdout, &stderr, tamper)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a tag line and a result line, got %q (err %v, stderr %s)", workload, stdout.String(), err, stderr.String())
	}
	var res resultLine
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: result line: %v", workload, jerr)
	}
	var tags struct {
		Tags map[string]any `json:"tags"`
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), &tags); jerr != nil {
		t.Fatalf("%s: tag line: %v", workload, jerr)
	}
	return res, tags.Tags, err
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			res, tags, err := runTiny(t, w, "3", trace, nil)
			if err != nil {
				t.Fatalf("%s trace=%s: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, names(defs)) {
				t.Errorf("%s trace=%s: metrics %v, want %v", w, trace, got, names(defs))
			}
			for _, d := range defs {
				if u := res.Metrics[d.name].Unit; u != d.unit {
					t.Errorf("%s: %s unit %q, want %q", w, d.name, u, d.unit)
				}
			}
			if trace == "0" {
				for _, d := range endToEnd {
					if v := res.Metrics[d.name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
					}
				}
			}
			for _, tag := range []string{"commit", "go", "num_cpu", "gomaxprocs", "seed", "params"} {
				if _, ok := tags[tag]; !ok {
					t.Errorf("%s: result not tagged with %s", w, tag)
				}
			}
		}
	}
}

func TestCorruptedCheckFailsTheRun(t *testing.T) {
	checks := map[string]string{
		"sweep":   "sweep.digest",
		"torus":   "torus.checksum",
		"verify":  "verify.counts",
		"service": "service.stream",
	}
	for w, check := range checks {
		tamper := func(name, value string) string {
			if name == check {
				return "corrupt-" + value
			}
			return value
		}
		res, _, err := runTiny(t, w, "5", "0", tamper)
		if !errors.Is(err, errViolation) {
			t.Errorf("%s: corrupted %s: err %v, want %v", w, check, err, errViolation)
		}
		if res.Correct {
			t.Errorf("%s: corrupted %s still reports correct", w, check)
		}
	}
}

func TestSeedChangesInputsNotMetrics(t *testing.T) {
	// Each workload tags its result with a fingerprint of its generated
	// inputs or their outputs.
	fingerprint := map[string]string{"sweep": "digest", "torus": "checksum", "verify": "transitions_per_pass"}
	for w, key := range fingerprint {
		r1, t1, err1 := runTiny(t, w, "1", "0", nil)
		r2, t2, err2 := runTiny(t, w, "2", "0", nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", w, err1, err2)
		}
		p1, p2 := t1["params"].(map[string]any)[key], t2["params"].(map[string]any)[key]
		if reflect.DeepEqual(p1, p2) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (%s = %v)", w, key, p1)
		}
		var m1, m2 []string
		for k := range r1.Metrics {
			m1 = append(m1, k)
		}
		for k := range r2.Metrics {
			m2 = append(m2, k)
		}
		sort.Strings(m1)
		sort.Strings(m2)
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("%s: metric sets differ across seeds: %v vs %v", w, m1, m2)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", c.kind, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(bj.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program %d", len(bj.Workload), len(workloads))
	}
	for _, w := range bj.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestSelfSharesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "campaign.RunSink", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "campaign.RunSink", Start: 50, End: 70}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "scenario.Resolve", Start: 20, End: 30},
	}}
	got := tr.selfShares()
	// bench: 100 minus the union [10,70] of its children; campaign: span 2's
	// 50 minus its child's 10, plus span 3's 20; all over the root's 100.
	want := map[string]float64{"bench": 0.4, "campaign": 0.6, "scenario": 0.1}
	for l, w := range want {
		if d := got[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self share of %s = %v, want %v", l, got[l], w)
		}
	}
}
