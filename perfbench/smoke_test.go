package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// runBench runs the benchmark in-process and decodes its result line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(args, "-spans-dir", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("%v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return r
}

// TestSmokeEveryWorkload runs each workload once, traced: one untraced pass
// under the correctness gate, then the replay under the fidelity check. The
// service workload also runs untraced, for the end-to-end metric path.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once (minutes)")
	}
	check := func(r result, want []struct{ Name, Unit string }) {
		t.Helper()
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(want) {
			t.Fatalf("%d metrics, want %d", len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got["unit"] != m.Unit {
				t.Fatalf("metric %s = %v, want unit %s", m.Name, got, m.Unit)
			}
		}
	}
	for _, w := range []string{"table2-mini", "dsp-dense", "service"} {
		t.Run(w, func(t *testing.T) {
			check(runBench(t, "-workload", w, "-seed", "3", "-seconds", "0", "-trace", "1"), perLayer)
		})
	}
	t.Run("service-untraced", func(t *testing.T) {
		r := runBench(t, "-workload", "service", "-seed", "3", "-seconds", "0", "-trace", "0")
		check(r, endToEnd)
		for _, m := range endToEnd {
			if v := r.Metrics[m.Name]["value"].(float64); v <= 0 {
				t.Errorf("%s = %v, want > 0", m.Name, v)
			}
		}
	})
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
