package main

import (
	"context"
	"fmt"
	"time"

	"dsplacer"
	"dsplacer/internal/core"
	"dsplacer/internal/drc"
	"dsplacer/internal/experiments"
	"dsplacer/internal/features"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gcn"
	"dsplacer/internal/gen"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// seedStride separates the generator seeds of successive benchmark seeds;
// seed 0 reproduces the specs' own seeds (the CLI's mini Table II).
const seedStride = 1000

// placement is one (netlist, flow) pair of a suite workload.
type placement struct {
	Netlist string
	Flow    string
	nl      *netlist.Netlist
	cfg     core.Config
}

// suite is a placement-suite workload: a fixed list of placements run one
// after another in one goroutine.
type suite struct {
	workload string
	dev      *fpga.Device
	jobs     []placement
}

// flowCfg is the paper-budget flow configuration with every field core
// would default spelled out, so the untraced flow and the replay agree.
func flowCfg(spec gen.Spec, ident core.Identifier) core.Config {
	return core.Config{
		ClockMHz: spec.FreqMHz, Lambda: 100, Eta: 50,
		MCFIterations: 50, Rounds: 2,
		Identifier:       ident,
		Seed:             spec.Seed,
		MaxDSPGraphDepth: 8,
		BaselineGPIters:  12, PrototypeGPIters: 12, ReplaceGPIters: 6,
		Validate: core.ValidateFinal,
	}
}

// reseed shifts every spec's generator seed by the benchmark seed.
func reseed(specs []gen.Spec, seed int64) []gen.Spec {
	out := make([]gen.Spec, len(specs))
	for i, s := range specs {
		s.Seed += seedStride * seed
		out[i] = s
	}
	return out
}

// setupTable2 builds table2-mini: the five mini Table II netlists × the
// three flows on zcu104, oracle identifier.
func setupTable2(seed int64) (*suite, error) {
	dev := fpga.MustDevice("zcu104")
	s := &suite{workload: "table2-mini", dev: dev}
	for _, spec := range reseed(experiments.MiniSpecs(), seed) {
		nl, err := gen.Generate(spec, dev)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		for _, flow := range []string{"vivado", "amf", "dsplacer"} {
			s.jobs = append(s.jobs, placement{Netlist: spec.Name, Flow: flow, nl: nl,
				cfg: flowCfg(spec, core.OracleIdentifier{})})
		}
	}
	return s, nil
}

// denseSpecs is the mini Table II logic with the Table I DSP counts ÷4.
func denseSpecs() []gen.Spec {
	full := gen.TableI()
	specs := experiments.MiniSpecs()
	for i := range specs {
		specs[i].Name = "dense-" + full[i].Name
		specs[i].DSP = full[i].DSP / 4
	}
	return specs
}

// denseFeatures is the feature configuration of the dsp-dense GCN: mode
// auto, the Fig. 7 pivot budget.
func denseFeatures(seed int64) features.Config {
	return features.Config{Mode: features.ModeAuto, Pivots: 96, Seed: seed + 13}
}

// setupDense builds dsp-dense: the dsplacer flow on the DSP-dense specs,
// with a GCN identifier trained on netlists of a different generator seed.
func setupDense(seed int64) (*suite, error) {
	dev := fpga.MustDevice("zcu104")
	fcfg := denseFeatures(seed)
	var train []*gcn.Sample
	for _, spec := range denseSpecs() {
		spec.Seed += seedStride*seed + seedStride/2
		nl, err := gen.Generate(spec, dev)
		if err != nil {
			return nil, fmt.Errorf("generate training %s: %w", spec.Name, err)
		}
		smp, err := core.BuildSample(nl, fcfg)
		if err != nil {
			return nil, fmt.Errorf("training features %s: %w", spec.Name, err)
		}
		train = append(train, smp)
	}
	gcfg := gcn.Defaults(features.NumFeatures)
	gcfg.Epochs = 15
	gcfg.Seed = seed + 1
	model, _ := gcn.Train(gcfg, train, nil)
	ident := macroVote{&core.GCNIdentifier{Model: model, FeatureCfg: fcfg}}

	s := &suite{workload: "dsp-dense", dev: dev}
	for _, spec := range reseed(denseSpecs(), seed) {
		nl, err := gen.Generate(spec, dev)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		s.jobs = append(s.jobs, placement{Netlist: spec.Name, Flow: "dsplacer", nl: nl,
			cfg: flowCfg(spec, ident)})
	}
	return s, nil
}

// macroVote closes an identifier's verdict under DSP cascade macros: a
// macro is datapath when at least half its members are. core.Run fails
// ("legalize: macro … missing from assignment") when a verdict splits a
// macro, which the GCN does on some seeds; this closure keeps dsp-dense
// runnable on every seed until the flow handles split macros itself.
type macroVote struct{ inner core.Identifier }

func (m macroVote) Name() string { return m.inner.Name() + "+macro-vote" }

func (m macroVote) Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error) {
	dp, err := m.inner.Identify(ctx, nl)
	if err != nil {
		return nil, err
	}
	return closeMacros(nl, dp), nil
}

// closeMacros applies the macroVote rule to a verdict and returns the cell
// ids in ascending order, as the identifiers do.
func closeMacros(nl *netlist.Netlist, datapath []int) []int {
	in := make(map[int]bool, len(datapath))
	for _, c := range datapath {
		in[c] = true
	}
	for _, mac := range nl.Macros {
		votes := 0
		for _, c := range mac {
			if in[c] {
				votes++
			}
		}
		for _, c := range mac {
			in[c] = 2*votes >= len(mac)
		}
	}
	var out []int
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if in[c] {
			out = append(out, c)
		}
	}
	return out
}

// flowOut is one untraced placement.
type flowOut struct {
	Res *core.Result
	Lat time.Duration
	Err error
}

// pass is one run of every placement of a suite.
type pass struct {
	Outs      []flowOut
	Wall, CPU time.Duration
}

func runFlow(ctx context.Context, s *suite, p placement) (*core.Result, error) {
	if p.Flow == "dsplacer" {
		return dsplacer.RunContext(ctx, s.dev, p.nl, p.cfg)
	}
	mode := dsplacer.ModeVivado
	if p.Flow == "amf" {
		mode = dsplacer.ModeAMF
	}
	return dsplacer.RunBaselineContext(ctx, s.dev, p.nl, mode, p.cfg)
}

// untracedPass runs every placement through the public entry points and
// times each; correctness checks run afterwards, outside the timed span.
func (s *suite) untracedPass(ctx context.Context) pass {
	p := pass{Outs: make([]flowOut, len(s.jobs))}
	cpu0, t0 := cpuTime(), time.Now()
	for i, j := range s.jobs {
		t := time.Now()
		res, err := runFlow(ctx, s, j)
		p.Outs[i] = flowOut{Res: res, Lat: time.Since(t), Err: err}
	}
	p.Wall, p.CPU = time.Since(t0), cpuTime()-cpu0
	return p
}

// check applies the correctness gate to one pass: every flow must succeed,
// every final placement must pass drc.Check, and every result must equal
// the reference pass bit for bit (ref nil for the first pass). It returns
// the number of failed placements.
func (s *suite) check(p pass, ref *pass, rep *report) int {
	failed := 0
	for i, o := range p.Outs {
		j := s.jobs[i]
		switch {
		case o.Err != nil:
			rep.notef("FAIL %s/%s: %v", j.Netlist, j.Flow, o.Err)
		case len(drc.Check(s.dev, j.nl, o.Res.Pos, o.Res.SiteOfDSP)) > 0:
			rep.notef("FAIL %s/%s: final placement fails drc.Check", j.Netlist, j.Flow)
		case ref != nil && ref.Outs[i].Err == nil && !rep.compare(resultQoR(o.Res), resultQoR(ref.Outs[i].Res)):
			rep.notef("FAIL %s/%s: %v differs from the first pass %v", j.Netlist, j.Flow,
				resultQoR(o.Res), resultQoR(ref.Outs[i].Res))
		default:
			continue
		}
		failed++
	}
	return failed
}

func resultQoR(r *core.Result) qor { return qor{HPWL: r.HPWL, WNS: r.WNS, TNS: r.TNS} }

// samePos reports whether two placements are bit-identical.
func samePos(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tracedPass replays every placement with spans and compares its QoR and
// positions with the untraced result of the same placement, which must have
// passed check(). Any divergence is an error:
// the per-layer numbers would describe a different program.
func (s *suite) tracedPass(ctx context.Context, tr *Tracer, ref pass, rep *report) (time.Duration, counters, error) {
	var cnt counters
	rp := &replayer{tr: tr, cnt: &cnt}
	t0 := time.Now()
	for i, j := range s.jobs {
		got, err := rp.run(ctx, s.dev, j.nl, j.Flow, j.cfg)
		if err != nil {
			return 0, cnt, fmt.Errorf("replay %s/%s: %w", j.Netlist, j.Flow, err)
		}
		want := ref.Outs[i].Res // check() has rejected failed untraced runs
		if !rep.compare(got.QoR, resultQoR(want)) || !samePos(got.Pos, want.Pos) {
			return 0, cnt, fmt.Errorf("replay %s/%s diverged: traced %v, untraced %v", j.Netlist, j.Flow, got.QoR, resultQoR(want))
		}
	}
	return time.Since(t0), cnt, nil
}

// measureSuite runs the untraced measurement: one pass, then more while the
// next one is expected to end within the time budget. Every pass after the
// first is checked against the first.
func measureSuite(ctx context.Context, s *suite, budget time.Duration, rep *report) {
	var passes []pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+passes[len(passes)-1].Wall <= budget {
		p := s.untracedPass(ctx)
		var ref *pass
		if len(passes) > 0 {
			ref = &passes[0]
		}
		rep.Attempted += len(p.Outs)
		rep.Failed += s.check(p, ref, rep)
		passes = append(passes, p)
	}
	suiteMetrics(s, passes, rep)
}

// suiteMetrics derives the end-to-end metrics and per-placement rows.
func suiteMetrics(s *suite, passes []pass, rep *report) {
	// A suite is one job to its user, who waits for the whole table: the
	// job latencies are pass walls. Per-placement latencies are in the rows.
	var walls, cpus []float64
	var total time.Duration
	for _, p := range passes {
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		total += p.Wall
	}
	rep.set("wall_s", "s", median(walls), len(walls))
	rep.set("cpu_s", "s", median(cpus), len(cpus))
	rep.set("job_latency_p50_s", "s", median(walls), len(walls))
	rep.set("job_latency_p90_s", "s", quantile(walls, tailQuantile(len(walls))), len(walls))
	rep.set("jobs_per_s", "1/s", float64(len(walls))/total.Seconds(), len(walls))

	var qt qorTotals
	match, dsps := 0, 0
	for i, j := range s.jobs {
		o := passes[0].Outs[i]
		if o.Err != nil {
			continue
		}
		var jl []float64
		for _, p := range passes {
			jl = append(jl, p.Outs[i].Lat.Seconds())
		}
		q := resultQoR(o.Res)
		rep.Rows = append(rep.Rows, row{Workload: s.workload, Netlist: j.Netlist, Flow: j.Flow, QoR: q, WallS: median(jl)})
		qt.add(q, j.cfg.ClockMHz)
		if j.Flow == "dsplacer" {
			verdict := o.Res.DatapathDSPs
			if mv, ok := j.cfg.Identifier.(macroVote); ok {
				// Score the classifier itself, before the macro vote; it is
				// deterministic, so re-running it outside the pass is exact.
				raw, err := mv.inner.Identify(context.Background(), j.nl)
				if err != nil {
					rep.notef("FAIL %s/%s: re-identify: %v", j.Netlist, j.Flow, err)
					rep.Failed++
					continue
				}
				voted, _ := identifyMatches(j.nl, verdict)
				m, n := identifyMatches(j.nl, raw)
				rep.notef("identify %s: classifier %d/%d DSPs right, %d after the macro vote", j.Netlist, m, n, voted)
				verdict = raw
			}
			m, n := identifyMatches(j.nl, verdict)
			match += m
			dsps += n
		}
	}
	qt.set(rep)
	acc := 0.0
	if dsps > 0 {
		acc = float64(match) / float64(dsps)
	}
	rep.set("identify_acc", "ratio", acc, 0)
}

// identifyMatches counts the DSPs whose datapath verdict equals the
// generator's ground truth, out of all DSPs.
func identifyMatches(nl *netlist.Netlist, datapath []int) (match, total int) {
	pred := make(map[int]bool, len(datapath))
	for _, c := range datapath {
		pred[c] = true
	}
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if pred[c] == nl.Cells[c].DatapathTruth {
			match++
		}
		total++
	}
	return match, total
}

// traceSuite alternates an untraced and a traced pass until the budget is
// spent (at least one pair) and reports the per-layer metrics as medians
// over the traced passes.
func traceSuite(ctx context.Context, s *suite, budget time.Duration, tr *Tracer, rep *report) error {
	var layers []map[string]float64
	var overheads []float64
	start := time.Now()
	var last time.Duration
	for len(layers) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		u := s.untracedPass(ctx)
		rep.Attempted += len(u.Outs)
		if f := s.check(u, nil, rep); f > 0 {
			rep.Failed += f
			return fmt.Errorf("correctness gate: %d of %d placements failed", f, len(u.Outs))
		}
		first := len(tr.Spans())
		wall, cnt, err := s.tracedPass(ctx, tr, u, rep)
		if err != nil {
			return err
		}
		layers = append(layers, layerValues(tr.Spans()[first:], cnt))
		overheads = append(overheads, (wall - u.Wall).Seconds())
		last = time.Since(t0)
	}
	rep.notef("trace overhead %.4f s per pass (traced wall − untraced wall, median of %d)", median(overheads), len(overheads))
	setLayers(rep, layers)
	return nil
}

// layerValues turns one traced pass into per-layer metric values.
func layerValues(spans []Span, cnt counters) map[string]float64 {
	t := totalsByName(spans)
	sec := func(name string) float64 { return t[name].Total.Seconds() }
	v := map[string]float64{
		"detailed.refine_s":     sec("detailed"),
		"detailed.calls":        float64(cnt.DetailedCalls),
		"detailed.hpwl_gain":    cnt.DetailedGain,
		"placer.place_s":        sec("placer"),
		"placer.global_s":       cnt.PlacerGlobalS,
		"placer.legalize_s":     cnt.PlacerLegalizeS,
		"placer.calls":          float64(cnt.PlacerCalls),
		"assign.solve_s":        sec("assign"),
		"assign.iterations":     float64(cnt.AssignIters),
		"legalize.legalize_s":   sec("legalize"),
		"dspgraph.build_s":      sec("dspgraph"),
		"dspgraph.edges":        float64(cnt.DSPGraphEdges),
		"features.extract_s":    sec("features"),
		"gcn.predict_s":         sec("gcn"),
		"route.route_s":         sec("route"),
		"route.overflow_edges":  float64(cnt.RouteOverflow),
		"sta.analyze_s":         sec("sta"),
		"sta.calls":             float64(cnt.STACalls),
		"drc.check_s":           sec("drc"),
		"jobs.queue_wait_s":     0,
		"jobs.run_s":            0,
		"server.overhead_s":     0,
		"cache.hit_ratio":       0,
		"server.placements_run": 0,
	}
	v["assign.iter_s"], v["assign.budget_stop_ratio"] = 0, 0
	if cnt.AssignIters > 0 {
		v["assign.iter_s"] = sec("assign") / float64(cnt.AssignIters)
	}
	if cnt.AssignSolves > 0 {
		v["assign.budget_stop_ratio"] = float64(cnt.AssignBudget) / float64(cnt.AssignSolves)
	}
	return v
}

// setLayers reports each per-layer metric as its median over passes.
func setLayers(rep *report, passes []map[string]float64) {
	for _, m := range perLayer {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[m.Name])
		}
		rep.set(m.Name, m.Unit, median(xs), 0)
	}
}
