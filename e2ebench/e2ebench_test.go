package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// finalLine is the shape of the last line of a run's standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runQuick(t *testing.T, workload string, trace string) (finalLine, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.3", "-trace", trace, "-quick", "-dir", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res finalLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	return res, out.String()
}

// checkMetrics asserts that got holds exactly the specs, each with its unit.
func checkMetrics(t *testing.T, got map[string]metricValue, specs []metricSpec) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%d metrics reported, want %d", len(got), len(specs))
	}
	for _, s := range specs {
		v, ok := got[s.name]
		if !ok {
			t.Errorf("metric %s missing", s.name)
			continue
		}
		if v.Unit != s.unit {
			t.Errorf("metric %s unit %q, want %q", s.name, v.Unit, s.unit)
		}
	}
}

// TestQuickTraced runs every workload at tiny sizes with tracing on: the
// per-layer set must be complete, every end-to-end metric and every
// reported one the workload defines must be printed by name with its unit, and every correctness gate —
// the span-sum check included — must pass.
func TestQuickTraced(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, out := runQuick(t, name, "1")
			checkMetrics(t, res.Metrics, perLayer)
			want := append([]metricSpec{}, endToEnd...)
			if name == "pipeline_ds1o" {
				want = append(want, metricSpec{"ingest_pts_per_s", "pts/s"}, metricSpec{"pipeline_s", "s"})
			} else {
				want = append(want, reported...)
			}
			for _, s := range want {
				for _, prefix := range []string{"metric ", "traced metric "} {
					if !strings.Contains(out, "\n"+prefix+s.name+" ") {
						t.Errorf("no %q line for %s", prefix, s.name)
					}
				}
			}
			if !strings.Contains(out, "traced gate span_sum ok") {
				t.Errorf("span-sum check missing or failed:\n%s", out)
			}
			if strings.Contains(out, " FAIL ") {
				t.Errorf("a gate failed:\n%s", out)
			}
		})
	}
}

// TestQuickPlain checks the untraced result line carries exactly the
// end-to-end set.
func TestQuickPlain(t *testing.T) {
	res, _ := runQuick(t, "pipeline_ds1o", "0")
	checkMetrics(t, res.Metrics, endToEnd)
	for name, v := range res.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-dir", t.TempDir()},
		{"-workload", "serve_mixed"},
		{"-workload", "serve_mixed", "-dir", t.TempDir(), "-trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json parses and names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q unknown or without a why", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s[%d] = %s/%s, want %s/%s", kind, i, got[i].Name, got[i].Unit, s.name, s.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}
