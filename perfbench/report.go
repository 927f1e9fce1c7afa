package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// N is the sample count behind a timing (0 for counts and QoR).
	N int
}

// endToEnd lists the metrics of the untraced run, in print order; every
// workload reports every one of them. WNS/TNS sums are printed as notes
// instead: they can read 0 or change sign (see README.md).
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hpwl_geomean", "fabric_units"},
	{"cpd_geomean_ns", "ns"},
	{"identify_acc", "ratio"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"jobs_per_s", "1/s"},
}

// perLayer lists the metrics of the traced run, in print order.
var perLayer = []struct{ Name, Unit string }{
	{"detailed.refine_s", "s"},
	{"detailed.calls", "count"},
	{"detailed.hpwl_gain", "fabric_units"},
	{"placer.place_s", "s"},
	{"placer.global_s", "s"},
	{"placer.legalize_s", "s"},
	{"placer.calls", "count"},
	{"assign.solve_s", "s"},
	{"assign.iterations", "count"},
	{"assign.iter_s", "s"},
	{"assign.budget_stop_ratio", "ratio"},
	{"legalize.legalize_s", "s"},
	{"dspgraph.build_s", "s"},
	{"dspgraph.edges", "count"},
	{"features.extract_s", "s"},
	{"gcn.predict_s", "s"},
	{"route.route_s", "s"},
	{"route.overflow_edges", "count"},
	{"sta.analyze_s", "s"},
	{"sta.calls", "count"},
	{"drc.check_s", "s"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"server.overhead_s", "s"},
	{"cache.hit_ratio", "ratio"},
	{"server.placements_run", "count"},
}

// row is one (workload, netlist, flow) placement result.
type row struct {
	Workload, Netlist, Flow string
	QoR                     qor
	WallS                   float64 // median over passes
}

// qorTotals aggregates the QoR of a workload's distinct placements.
type qorTotals struct {
	hpwl, cpd      []float64
	wnsMin, tnsSum float64
}

func (t *qorTotals) add(q qor, clockMHz float64) {
	if len(t.hpwl) == 0 || q.WNS < t.wnsMin {
		t.wnsMin = q.WNS
	}
	t.hpwl = append(t.hpwl, q.HPWL)
	t.cpd = append(t.cpd, 1000/clockMHz-q.WNS) // critical-path delay
	t.tnsSum += q.TNS
}

// set reports the QoR metrics; the WNS/TNS aggregates are notes because
// they can be 0 or change sign.
func (t *qorTotals) set(rep *report) {
	rep.set("hpwl_geomean", "fabric_units", geomean(t.hpwl), 0)
	rep.set("cpd_geomean_ns", "ns", geomean(t.cpd), 0)
	rep.notef("wns_min_ns %.6g ns (higher is better)", t.wnsMin)
	rep.notef("tns_sum_ns %.6g ns (higher is better)", t.tnsSum)
}

// report is everything one benchmark run prints.
type report struct {
	Trace     bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Rows      []row
	Lines     []string // human-readable notes printed before the metrics
	// Compared counts result comparisons (run against run, replay against
	// run); TNSDrift counts those that matched only up to TNS summation
	// order.
	Compared, TNSDrift int
}

// compare checks got against want (qor.same) and tallies the comparison.
func (r *report) compare(got, want qor) bool {
	r.Compared++
	if got.tnsOrderDrift(want) {
		r.TNSDrift++
	}
	return got.same(want)
}

func newReport(trace bool) *report {
	return &report{Trace: trace, Metrics: make(map[string]metric)}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Name: name, Unit: unit, Value: v, N: n}
}

func (r *report) notef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// wanted is the metric list the result line must carry for this run.
func (r *report) wanted() []struct{ Name, Unit string } {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// validate reports a metric the run failed to produce, or one whose value
// is not a finite number; either is a benchmark bug, not a measurement.
func (r *report) validate() error {
	for _, w := range r.wanted() {
		m, ok := r.Metrics[w.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", w.Name, m.Value)
		}
	}
	return nil
}

// write prints the environment, the per-placement rows, every metric with
// its unit (and sample count for timings), and last the JSON result line.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "env goos=%s goarch=%s go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), commit())
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "tns_order_drift %d of %d result comparisons matched only up to TNS summation order\n",
		r.TNSDrift, r.Compared)
	for _, rw := range r.Rows {
		fmt.Fprintf(w, "row workload=%s netlist=%s flow=%s hpwl=%.6g wns_ns=%.6g tns_ns=%.6g wall_s=%.4f\n",
			rw.Workload, rw.Netlist, rw.Flow, rw.QoR.HPWL, rw.QoR.WNS, rw.QoR.TNS, rw.WallS)
	}
	out := make(map[string]map[string]any)
	for _, want := range r.wanted() {
		m := r.Metrics[want.Name]
		if m.N > 0 {
			fmt.Fprintf(w, "metric %-26s %14.6g %-12s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "metric %-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuModel reads the processor name for the environment record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a checkout without VCS metadata reads "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
