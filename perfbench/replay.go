package main

import (
	"context"
	"fmt"
	"math"

	"dsplacer/internal/assign"
	"dsplacer/internal/core"
	"dsplacer/internal/detailed"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/legalize"
	"dsplacer/internal/metrics"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
	"dsplacer/internal/route"
	"dsplacer/internal/sta"
)

// counters are the per-layer work counts the traced replay records at the
// same call boundaries as its spans. Layer times come from the spans.
type counters struct {
	PlacerCalls     int
	PlacerGlobalS   float64 // placer.Result.GPTime
	PlacerLegalizeS float64 // placer.Result.LegalTime (DetailedPasses 0)
	DetailedCalls   int
	DetailedGain    float64
	AssignSolves    int
	AssignIters     int
	AssignBudget    int // solves that stopped on the iteration budget
	DSPGraphEdges   int
	RouteOverflow   int
	STACalls        int
}

// qor is the part of a flow result the fidelity and correctness checks
// compare bit for bit.
type qor struct {
	HPWL, WNS, TNS float64
}

// same reports whether two results agree: HPWL and WNS bit for bit, TNS up
// to the rounding of summing the same endpoint slacks in another order.
// sta.Analyze sums TNS over a map, so its last bits vary from run to run
// (a program defect the benchmark reports rather than hides: see
// tnsOrderDrift).
func (q qor) same(o qor) bool {
	return q.HPWL == o.HPWL && q.WNS == o.WNS &&
		math.Abs(q.TNS-o.TNS) <= 1e-9*math.Max(math.Abs(q.TNS), math.Abs(o.TNS))
}

// tnsOrderDrift reports whether two results that are the same differ only in
// the last bits of TNS.
func (q qor) tnsOrderDrift(o qor) bool { return q.same(o) && q.TNS != o.TNS }

func (q qor) String() string {
	return fmt.Sprintf("hpwl=%v wns=%v tns=%v", q.HPWL, q.WNS, q.TNS)
}

// replayed is one traced placement: its QoR and its final placement.
type replayed struct {
	QoR qor
	Pos []geom.Point
}

// replayer re-executes core.Run and core.RunBaseline as a sequence of calls
// into the layers' public functions, with a span around each call. cfg must
// be fully populated (no zero fields relying on core's defaults), so both
// the replay and the untraced flow see the same parameters.
type replayer struct {
	tr  *Tracer
	cnt *counters
}

// run replays flow ("vivado", "amf" or "dsplacer") on nl under one root
// span, i.e. one trace id per placement.
func (r *replayer) run(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, flow string, cfg core.Config) (*replayed, error) {
	defer r.tr.Root("flow")()
	restore := snapshotWeights(nl)
	defer restore()
	period := 1000.0 / cfg.ClockMHz
	switch flow {
	case "vivado":
		return r.baseline(ctx, dev, nl, placer.ModeVivado, cfg, period)
	case "amf":
		return r.baseline(ctx, dev, nl, placer.ModeAMF, cfg, period)
	case "dsplacer":
		return r.dsplacer(ctx, dev, nl, cfg, period)
	}
	return nil, fmt.Errorf("replay: unknown flow %q", flow)
}

// baseline mirrors core.RunBaseline.
func (r *replayer) baseline(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, mode placer.Mode, cfg core.Config, period float64) (*replayed, error) {
	res, err := r.place(ctx, dev, nl, placer.Options{Mode: mode, Seed: cfg.Seed,
		GPIterations: cfg.BaselineGPIters, GP: cfg.GP})
	if err != nil {
		return nil, err
	}
	if cfg.TimingDriven {
		if err := r.reweight(nl, res.Pos, period); err != nil {
			return nil, err
		}
	}
	res, err = r.place(ctx, dev, nl, placer.Options{Mode: mode, Seed: cfg.Seed + 1,
		GPIterations: cfg.ReplaceGPIters, Warm: res.Pos, GP: cfg.GP})
	if err != nil {
		return nil, err
	}
	r.refine(dev, nl, res.Pos, detailed.Options{Passes: 2, Seed: cfg.Seed + 1})
	return r.finish(dev, nl, res.Pos, res.SiteOfDSP, mode.String(), cfg, period)
}

// dsplacer mirrors core.Run.
func (r *replayer) dsplacer(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, cfg core.Config, period float64) (*replayed, error) {
	proto, err := r.place(ctx, dev, nl, placer.Options{Mode: placer.ModeVivado, Seed: cfg.Seed,
		GPIterations: cfg.PrototypeGPIters, GP: cfg.GP})
	if err != nil {
		return nil, err
	}
	if cfg.TimingDriven {
		if err := r.reweight(nl, proto.Pos, period); err != nil {
			return nil, err
		}
	}
	datapath, err := r.identify(ctx, nl, cfg.Identifier)
	if err != nil {
		return nil, err
	}
	end := r.tr.Begin("dspgraph")
	dg := dspgraph.Build(nl, dspgraph.Config{MaxDepth: cfg.MaxDSPGraphDepth})
	end()
	r.cnt.DSPGraphEdges += len(dg.Edges)
	keep := make(map[int]bool, len(datapath))
	for _, c := range datapath {
		keep[c] = true
	}
	dg = dg.Filter(func(id int) bool { return keep[id] })

	pos := proto.Pos
	var siteOf map[int]int
	for round := 0; round < cfg.Rounds; round++ {
		end := r.tr.Begin("assign")
		ar, err := assign.Solve(ctx, &assign.Problem{
			Device: dev, Netlist: nl, Graph: dg, DSPs: datapath, Pos: pos,
			Lambda: cfg.Lambda, Eta: cfg.Eta, Iterations: cfg.MCFIterations,
		})
		end()
		if err != nil {
			return nil, fmt.Errorf("replay: MCF assignment: %w", err)
		}
		r.cnt.AssignSolves++
		r.cnt.AssignIters += ar.Iterations
		if ar.StopReason == "budget" {
			r.cnt.AssignBudget++
		}
		end = r.tr.Begin("legalize")
		legal, err := legalize.Legalize(dev, nl, ar.SiteOf, legalize.Options{})
		end()
		if err != nil {
			return nil, fmt.Errorf("replay: legalization: %w", err)
		}
		res, err := r.place(ctx, dev, nl, placer.Options{
			Mode: placer.ModeDSPlacer, Seed: cfg.Seed + int64(round) + 1,
			FixedSites: legal, GPIterations: cfg.ReplaceGPIters, Warm: pos, GP: cfg.GP,
		})
		if err != nil {
			return nil, err
		}
		if round == cfg.Rounds-1 {
			r.refine(dev, nl, res.Pos, detailed.Options{Passes: 2, Seed: cfg.Seed + int64(round) + 1})
		}
		pos, siteOf = res.Pos, res.SiteOfDSP
	}
	return r.finish(dev, nl, pos, siteOf, "dsplacer", cfg, period)
}

// identify mirrors the identifiers' Identify under one span; a macroVote
// wrapper applies its closure to the inner verdict.
func (r *replayer) identify(ctx context.Context, nl *netlist.Netlist, ident core.Identifier) ([]int, error) {
	defer r.tr.Begin("identify")()
	mv, vote := ident.(macroVote)
	if vote {
		ident = mv.inner
	}
	dp, err := r.classify(ctx, nl, ident)
	if err != nil || !vote {
		return dp, err
	}
	return closeMacros(nl, dp), nil
}

// classify runs an identifier; the GCN path splits into feature extraction
// and inference so each gets its own span.
func (r *replayer) classify(ctx context.Context, nl *netlist.Netlist, ident core.Identifier) ([]int, error) {
	g, ok := ident.(*core.GCNIdentifier)
	if !ok {
		return ident.Identify(ctx, nl)
	}
	end := r.tr.Begin("features")
	sample, err := core.BuildSampleContext(ctx, nl, g.FeatureCfg)
	end()
	if err != nil {
		return nil, fmt.Errorf("replay: features: %w", err)
	}
	end = r.tr.Begin("gcn")
	classes, _ := g.Model.Predict(sample)
	end()
	var out []int
	for i, c := range sample.Mask {
		if classes[i] == 1 {
			out = append(out, c)
		}
	}
	return out, nil
}

// finish runs every flow's tail: timing polish, the final DRC gate, routing
// and timing analysis.
func (r *replayer) finish(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, siteOf map[int]int, flow string, cfg core.Config, period float64) (*replayed, error) {
	if err := r.polish(dev, nl, pos, period, cfg.Seed); err != nil {
		return nil, err
	}
	if cfg.Validate >= core.ValidateFinal {
		end := r.tr.Begin("drc")
		err := core.ValidatePlacement(dev, nl, pos, siteOf, flow, "final")
		end()
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	end := r.tr.Begin("route")
	rr := route.Route(dev, nl, pos, cfg.RouteOpts)
	end()
	r.cnt.RouteOverflow += rr.OverflowEdges
	end = r.tr.Begin("sta")
	timing, err := sta.Analyze(nl, pos, sta.Options{ClockPeriodNs: period, Congestion: rr.NetCongestion})
	end()
	r.cnt.STACalls++
	if err != nil {
		return nil, fmt.Errorf("replay: STA: %w", err)
	}
	return &replayed{
		QoR: qor{HPWL: metrics.HPWLUnit(nl, pos), WNS: timing.WNS, TNS: timing.TNS},
		Pos: pos,
	}, nil
}

// place runs global placement + legalization with detailed refinement left
// out, so placer and detailed each get their own span.
func (r *replayer) place(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, opt placer.Options) (*placer.Result, error) {
	opt.DetailedPasses = 0
	end := r.tr.Begin("placer")
	res, err := placer.PlaceContext(ctx, dev, nl, opt)
	end()
	if err != nil {
		return nil, fmt.Errorf("replay: %v placement: %w", opt.Mode, err)
	}
	r.cnt.PlacerCalls++
	r.cnt.PlacerGlobalS += res.GPTime.Seconds()
	r.cnt.PlacerLegalizeS += res.LegalTime.Seconds()
	return res, nil
}

func (r *replayer) refine(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt detailed.Options) float64 {
	end := r.tr.Begin("detailed")
	gain := detailed.Refine(dev, nl, pos, opt)
	end()
	r.cnt.DetailedCalls++
	r.cnt.DetailedGain += gain
	return gain
}

// polish mirrors core.timingPolish: two rounds of slack reweighting and
// refinement, stopping early once a round gains nothing.
func (r *replayer) polish(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, period float64, seed int64) error {
	defer r.tr.Begin("polish")()
	restore := snapshotWeights(nl)
	defer restore()
	for round := 0; round < 2; round++ {
		if err := r.reweight(nl, pos, period); err != nil {
			return err
		}
		if r.refine(dev, nl, pos, detailed.Options{Passes: 2, Seed: seed}) <= 0 {
			break
		}
	}
	return nil
}

// reweight mirrors core.reweight: one STA pass, then criticality weights.
func (r *replayer) reweight(nl *netlist.Netlist, pos []geom.Point, period float64) error {
	end := r.tr.Begin("sta")
	timing, err := sta.Analyze(nl, pos, sta.Options{ClockPeriodNs: period})
	end()
	r.cnt.STACalls++
	if err != nil {
		return fmt.Errorf("replay: estimate STA: %w", err)
	}
	for ni, w := range sta.NetCriticality(nl, timing, 3) {
		nl.Nets[ni].Weight = w
	}
	return nil
}

// snapshotWeights mirrors core's weight snapshot: flows that reweight nets
// must not leak the weights into the next flow on the same netlist.
func snapshotWeights(nl *netlist.Netlist) func() {
	saved := make([]float64, len(nl.Nets))
	for i, n := range nl.Nets {
		saved[i] = n.Weight
	}
	return func() {
		for i, n := range nl.Nets {
			n.Weight = saved[i]
		}
	}
}
