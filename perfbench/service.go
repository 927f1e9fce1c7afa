package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsplacer/internal/core"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/jobs"
	"dsplacer/internal/netlist"
	"dsplacer/internal/server"
)

// serviceWorkers is the daemon's scheduler width in the service workload.
const serviceWorkers = 2

// resubmitShare is the share of service submissions that repeat a recent
// request; they hit the result cache or join the in-flight run.
const resubmitShare = 0.3

// svcRequest is one distinct placement request of the service workload.
type svcRequest struct {
	Name   string // family/device/flow
	Flow   string
	body   []byte
	nl     *netlist.Netlist // decoded from the request's netlist JSON
	dev    *fpga.Device
	cfg    core.Config // what the daemon runs for this request
	truthN int         // ground-truth datapath DSP count
	numDSP int
}

// service is the service workload: distinct requests plus the seeded
// submission script (indices into reqs, ~30% repeats of recent requests).
type service struct {
	reqs   []svcRequest
	script []int
}

// setupService generates the family presets on both devices, encodes the
// request bodies and draws the submission script.
func setupService(seed int64) (*service, error) {
	s := &service{}
	for _, devName := range []string{"pynq-z2", "zcu104"} {
		dev, err := fpga.Lookup(devName)
		if err != nil {
			return nil, err
		}
		for _, spec := range reseed(gen.FamilySpecs(), seed) {
			nl, err := gen.Generate(spec, dev)
			if err != nil {
				return nil, fmt.Errorf("generate %s on %s: %w", spec.Name, devName, err)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(nl); err != nil {
				return nil, fmt.Errorf("encode %s: %w", spec.Name, err)
			}
			for _, flow := range []string{"vivado", "amf", "dsplacer"} {
				body, err := json.Marshal(server.PlaceRequest{
					Netlist: buf.Bytes(), Flow: flow, FreqMHz: spec.FreqMHz,
					Seed: spec.Seed, Device: devName, Validate: "final",
				})
				if err != nil {
					return nil, err
				}
				// The replay sees exactly the bytes the daemon decodes.
				dec, err := netlist.Read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					return nil, fmt.Errorf("decode %s: %w", spec.Name, err)
				}
				truth := 0
				for _, c := range dec.CellsOfType(netlist.DSP) {
					if dec.Cells[c].DatapathTruth {
						truth++
					}
				}
				s.reqs = append(s.reqs, svcRequest{
					Name: spec.Name + "/" + devName + "/" + flow, Flow: flow,
					body: body, nl: dec, dev: dev,
					cfg:    flowCfg(spec, core.OracleIdentifier{}),
					truthN: truth, numDSP: len(dec.CellsOfType(netlist.DSP)),
				})
			}
		}
	}
	s.script = drawScript(len(s.reqs), seed)
	return s, nil
}

// drawScript orders every request once, seeded, and inserts repeats of
// recent requests until they are resubmitShare of all submissions.
func drawScript(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	repeats := int(float64(n)*resubmitShare/(1-resubmitShare) + 0.5)
	var script []int
	for i, r := range order {
		script = append(script, r)
		// Spread the repeats over the script; each picks one of the last
		// four submissions.
		for repeats > 0 && rng.Float64() < float64(repeats)/float64(n-i) {
			back := 1 + rng.Intn(min(4, len(script)))
			script = append(script, script[len(script)-back])
			repeats--
		}
	}
	return script
}

// jobRecord is one submission as its client saw it.
type jobRecord struct {
	Req     int
	Latency time.Duration
	Doc     server.JobDoc
	Err     error
}

// svcPass is one run of the whole script against a fresh daemon.
type svcPass struct {
	Jobs                 []jobRecord
	Wall, CPU            time.Duration
	Hits, Misses, Placed float64
}

// daemon is an in-process dsplacerd on a loopback port.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  server.New(server.Config{Device: fpga.MustDevice("zcu104"), Jobs: jobs.Config{Workers: serviceWorkers}}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the scheduler, closes the listener and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if e := d.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

// runPass drives the script against a fresh daemon as a closed loop: each
// of nproc clients submits, waits on the job's event stream for a terminal
// state, fetches the job document, and only then submits again.
func (s *service) runPass(ctx context.Context) (svcPass, error) {
	d, err := startDaemon()
	if err != nil {
		return svcPass{}, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()

	p := svcPass{Jobs: make([]jobRecord, len(s.script))}
	var mu sync.Mutex
	next := 0
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(s.script) {
					return
				}
				r := s.script[i]
				t := time.Now()
				doc, err := submitAndWait(ctx, client, d.base, s.reqs[r].body)
				p.Jobs[i] = jobRecord{Req: r, Latency: time.Since(t), Doc: doc, Err: err}
			}
		}()
	}
	wg.Wait()
	p.Wall, p.CPU = time.Since(t0), cpuTime()-cpu0

	m, err := scrapeMetrics(ctx, client, d.base)
	if err == nil {
		p.Hits, p.Misses, p.Placed = m["dsplacer_cache_hits_total"], m["dsplacer_cache_misses_total"], m["dsplacer_placements_total"]
	}
	if e := d.stop(); err == nil {
		err = e
	}
	return p, err
}

// submitAndWait POSTs one job, follows its SSE stream to a terminal state
// and returns the final job document.
func submitAndWait(ctx context.Context, c *http.Client, base string, body []byte) (server.JobDoc, error) {
	var doc server.JobDoc
	var sub struct{ ID string }
	if err := call(ctx, c, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		return doc, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return doc, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return doc, fmt.Errorf("events: %w", err)
	}
	state, err := waitTerminal(resp.Body)
	resp.Body.Close()
	if err != nil {
		return doc, fmt.Errorf("job %s events: %w", sub.ID, err)
	}
	if err := call(ctx, c, http.MethodGet, base+"/v1/jobs/"+sub.ID, nil, http.StatusOK, &doc); err != nil {
		return doc, err
	}
	if state != "done" || doc.State != "done" || doc.Result == nil {
		return doc, fmt.Errorf("job %s ended %s: %s", sub.ID, state, doc.Error)
	}
	return doc, nil
}

// waitTerminal reads SSE events until a terminal state event arrives.
func waitTerminal(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type == "state" {
			switch ev.State {
			case "done", "failed", "canceled":
				return ev.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("stream ended before a terminal state")
}

// call issues one JSON request and decodes the response into out.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// scrapeMetrics reads the unlabeled series of GET /metrics.
func scrapeMetrics(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func docQoR(d server.JobDoc) qor {
	return qor{HPWL: d.Result.HPWL, WNS: d.Result.WNS, TNS: d.Result.TNS}
}

// check applies the correctness gate to one pass: every job must reach
// done, and every submission of a request must report the same QoR as the
// request's first result (in this pass, or ref from an earlier pass). It
// returns the number of failed jobs and the first result per request.
func (s *service) check(p svcPass, ref map[int]qor, rep *report) (int, map[int]qor) {
	first := make(map[int]qor, len(s.reqs))
	for r, q := range ref {
		first[r] = q
	}
	failed := 0
	for _, j := range p.Jobs {
		name := s.reqs[j.Req].Name
		if j.Err != nil {
			rep.notef("FAIL %s: %v", name, j.Err)
			failed++
			continue
		}
		q := docQoR(j.Doc)
		if want, ok := first[j.Req]; !ok {
			first[j.Req] = q
		} else if !rep.compare(q, want) {
			rep.notef("FAIL %s: resubmission reports %v, first result %v", name, q, want)
			failed++
		}
	}
	return failed, first
}

// measureService runs one untraced pass, then more while the next one is
// expected to end within the budget, and reports the end-to-end metrics.
func measureService(ctx context.Context, s *service, budget time.Duration, rep *report) error {
	var passes []svcPass
	var ref map[int]qor
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+passes[len(passes)-1].Wall <= budget {
		p, err := s.runPass(ctx)
		if err != nil {
			return err
		}
		var f int
		f, ref = s.check(p, ref, rep)
		rep.Attempted += len(p.Jobs)
		rep.Failed += f
		passes = append(passes, p)
	}

	var walls, cpus, lats []float64
	var total time.Duration
	for _, p := range passes {
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		total += p.Wall
		for _, j := range p.Jobs {
			lats = append(lats, j.Latency.Seconds())
		}
	}
	rep.set("wall_s", "s", median(walls), len(walls))
	rep.set("cpu_s", "s", median(cpus), len(cpus))
	rep.set("job_latency_p50_s", "s", median(lats), len(lats))
	q := tailQuantile(len(s.script))
	rep.set("job_latency_p90_s", "s", quantile(lats, q), len(lats))
	rep.notef("job_latency_p90_s is the p%.0f of %d job latencies; %d clients, %d workers",
		q*100, len(lats), runtime.NumCPU(), serviceWorkers)
	rep.set("jobs_per_s", "1/s", float64(len(lats))/total.Seconds(), len(lats))

	var qt qorTotals
	predOff, dsps := 0, 0
	for r, req := range s.reqs {
		q, ok := ref[r]
		if !ok {
			continue
		}
		var jl []float64
		var datapath int
		for _, p := range passes {
			for _, j := range p.Jobs {
				if j.Req == r && j.Err == nil {
					jl = append(jl, j.Latency.Seconds())
					datapath = j.Doc.Result.DatapathDSPs
				}
			}
		}
		rep.Rows = append(rep.Rows, row{Workload: "service", Netlist: req.Name, Flow: req.Flow, QoR: q, WallS: median(jl)})
		qt.add(q, req.cfg.ClockMHz)
		if req.Flow == "dsplacer" {
			predOff += abs(datapath - req.truthN)
			dsps += req.numDSP
		}
	}
	qt.set(rep)
	acc := 0.0
	if dsps > 0 {
		acc = 1 - float64(predOff)/float64(dsps)
	}
	rep.set("identify_acc", "ratio", acc, 0)
	rep.notef("identify_acc on service compares datapath DSP counts (job documents carry no cell ids)")
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// traceService alternates an untraced service pass with a traced replay of
// every distinct request, compared bit for bit with the daemon's result.
// The service layers (jobs, server, cache) are measured from the untraced
// pass's job documents and /metrics; the placement layers from the replay.
func traceService(ctx context.Context, s *service, budget time.Duration, tr *Tracer, rep *report) error {
	var layers []map[string]float64
	var overheads []float64
	start := time.Now()
	var last time.Duration
	for len(layers) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		p, err := s.runPass(ctx)
		if err != nil {
			return err
		}
		f, results := s.check(p, nil, rep)
		rep.Attempted += len(p.Jobs)
		if f > 0 {
			rep.Failed += f
			return fmt.Errorf("correctness gate: %d of %d jobs failed", f, len(p.Jobs))
		}

		var cnt counters
		rp := &replayer{tr: tr, cnt: &cnt}
		first := len(tr.Spans())
		r0 := time.Now()
		for r, req := range s.reqs {
			got, err := rp.run(ctx, req.dev, req.nl, req.Flow, req.cfg)
			if err != nil {
				return fmt.Errorf("replay %s: %w", req.Name, err)
			}
			if want := results[r]; !rep.compare(got.QoR, want) {
				return fmt.Errorf("replay %s diverged: traced %v, daemon %v", req.Name, got.QoR, want)
			}
		}
		replayWall := time.Since(r0)

		v := layerValues(tr.Spans()[first:], cnt)
		var waits, runs, over []float64
		var computed time.Duration
		for _, j := range p.Jobs {
			d := j.Doc
			wait, run := d.Started.Sub(d.Created), d.Finished.Sub(*d.Started)
			waits = append(waits, wait.Seconds())
			runs = append(runs, run.Seconds())
			over = append(over, (j.Latency - wait - run).Seconds())
			if !d.Result.Cached {
				computed += run
			}
		}
		v["jobs.queue_wait_s"] = median(waits)
		v["jobs.run_s"] = median(runs)
		v["server.overhead_s"] = median(over)
		if p.Hits+p.Misses > 0 {
			v["cache.hit_ratio"] = p.Hits / (p.Hits + p.Misses)
		}
		v["server.placements_run"] = p.Placed
		layers = append(layers, v)
		// The daemon ran its placements two at a time; the replay runs them
		// one by one, so compare against the daemon's summed run time.
		overheads = append(overheads, (replayWall - computed).Seconds())
		last = time.Since(t0)
	}
	rep.notef("trace overhead %.4f s per pass (replay wall − summed daemon run time of computed jobs, median of %d)",
		median(overheads), len(overheads))
	setLayers(rep, layers)
	return nil
}
