// Command perfbench is the repository benchmark. It runs one named workload
// against the public entry points (dsplacer.RunContext/RunBaselineContext,
// and the dsplacerd HTTP API served in-process on loopback), checks that
// every output is correct, and prints the end-to-end metrics. With -trace 1
// it instead replays every placement as a sequence of layer calls with a
// span around each, proves the replay reproduces the untraced result bit for
// bit, and prints the per-layer metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (see README.md):
//
//	bash perfbench/run.sh --workload table2-mini --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run builds its workload at least minSetupReps times and until
// minSetupTime has been spent (at most maxSetupReps times); setup_s is the
// median, so a one-off stall does not move it, and a set-up of a few
// milliseconds is still timed over enough repetitions to be steady.
const (
	minSetupReps = 3
	maxSetupReps = 25
	minSetupTime = 3 * time.Second
)

type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	SpansDir string
}

// workloads maps each workload name to its set-up and measurement.
var workloads = map[string]func(ctx context.Context, o options, rep *report) error{
	"table2-mini": func(ctx context.Context, o options, rep *report) error {
		return runSuite(ctx, o, rep, setupTable2)
	},
	"dsp-dense": func(ctx context.Context, o options, rep *report) error {
		return runSuite(ctx, o, rep, setupDense)
	},
	"service": runService,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "table2-mini", "workload: "+workloadNames())
	fs.Int64Var(&o.Seed, "seed", 0, "input generation seed")
	fs.Float64Var(&o.Seconds, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced replay with per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.SpansDir, "spans-dir", "", "directory for the traced run's span dump (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	o.Trace = trace == 1
	w, ok := workloads[o.Workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", o.Workload, workloadNames())
		return 2
	}

	rep := newReport(o.Trace)
	err := w(context.Background(), o, rep)
	if err == nil {
		rep.set("peak_rss_mb", "MB", peakRSSMB(), 0)
		err = rep.validate()
	}
	if err != nil {
		for _, l := range rep.Lines {
			fmt.Fprintln(stderr, l)
		}
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.Workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed for %d of %d operations\n",
			o.Workload, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// setupTimed builds the workload repeatedly (see minSetupReps), reports the
// median set-up time, and returns the last build (every build is identical).
func setupTimed[T any](rep *report, build func() (T, error)) (T, error) {
	var out T
	var ts []float64
	start := time.Now()
	for len(ts) < minSetupReps || (len(ts) < maxSetupReps && time.Since(start) < minSetupTime) {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		out = v
	}
	rep.set("setup_s", "s", median(ts), len(ts))
	return out, nil
}

func budget(o options) time.Duration { return time.Duration(o.Seconds * float64(time.Second)) }

func runSuite(ctx context.Context, o options, rep *report, setup func(int64) (*suite, error)) error {
	s, err := setupTimed(rep, func() (*suite, error) { return setup(o.Seed) })
	if err != nil {
		return err
	}
	if !o.Trace {
		measureSuite(ctx, s, budget(o), rep)
		return nil
	}
	tr := NewTracer()
	if err := traceSuite(ctx, s, budget(o), tr, rep); err != nil {
		return err
	}
	return finishTrace(o, tr, rep)
}

func runService(ctx context.Context, o options, rep *report) error {
	s, err := setupTimed(rep, func() (*service, error) {
		s, err := setupService(o.Seed)
		if err != nil {
			return nil, err
		}
		// Daemon start-up belongs to set-up; each pass starts its own
		// daemon so every pass sees an empty cache.
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		return s, d.stop()
	})
	if err != nil {
		return err
	}
	if !o.Trace {
		return measureService(ctx, s, budget(o), rep)
	}
	tr := NewTracer()
	if err := traceService(ctx, s, budget(o), tr, rep); err != nil {
		return err
	}
	return finishTrace(o, tr, rep)
}

// finishTrace prints self time per layer and writes the spans.
func finishTrace(o options, tr *Tracer, rep *report) error {
	rep.Lines = append(rep.Lines, selfTimeLines(tr.Spans())...)
	if o.SpansDir == "" {
		return nil
	}
	path := filepath.Join(o.SpansDir, fmt.Sprintf("spans-%s-seed%d.json", o.Workload, o.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.notef("spans written to %s (%d spans)", path, len(tr.Spans()))
	return nil
}
