package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/warehouse"
	"repro/internal/yelt"
	"repro/risk"
)

const (
	// quoteRate is the open-loop arrival rate per second: about half the
	// desk's capacity for the mix on two cores, where p50 stays steady.
	quoteRate = 40.0
	// Shares of --seconds for the open-loop, capacity and cube phases.
	// The open loop gets most so its p99 rests on 1,008 quotes at 36 s.
	openShare, capacityShare, cubeShare = 0.70, 0.28, 0.02
	// deskRounds is how many times the open loop and the capacity phase
	// alternate in a run.
	deskRounds = 8
	// deskSetups is how many times a run sets the desk up to time it.
	deskSetups = 3
	// replayQuotes is how many served quotes the traced run replays
	// through the modules, in the 9:1 mix of the traffic.
	replayQuotes = 20
)

// deskConfig is the quote desk's book, configured the way
// cmd/quoteserver configures it: each quote simulates on one thread and
// the serving pool carries the parallelism. Sixty locations keep the
// single-threaded stage 1 of set-up short; quote latency barely depends
// on the book's size. The 20,000-trial portfolio run builds the cube.
func deskConfig(seed uint64, tiny bool) risk.Config {
	cfg := risk.Config{
		Seed:                 seed,
		Events:               10_000,
		Contracts:            16,
		LocationsPerContract: 60,
		Trials:               20_000,
		Workers:              1,
		CubeDims:             []string{"region", "lob"},
	}
	if tiny {
		cfg.Events = 400
		cfg.Contracts = 4
		cfg.LocationsPerContract = 10
		cfg.Trials = 2_000
	}
	return cfg
}

// quoteSizes are the trial counts of the common and the large quote.
func quoteSizes(tiny bool) (small, large int) {
	if tiny {
		return 500, 5_000
	}
	return 5_000, 50_000
}

// deskCoreConfig is the pipeline configuration risk.Study derives from
// cfg, for the traced replay of the desk's portfolio run.
func deskCoreConfig(cfg risk.Config) core.Config {
	return core.New(core.Config{
		Seed:                 cfg.Seed,
		NumEvents:            cfg.Events,
		NumContracts:         cfg.Contracts,
		LocationsPerContract: cfg.LocationsPerContract,
		NumTrials:            cfg.Trials,
		Engine:               aggregate.Parallel{},
		CubeDims:             cfg.CubeDims,
		Workers:              cfg.Workers,
		TwoLayers:            true,
	}).Cfg
}

// desk is a warmed study served over loopback HTTP.
type desk struct {
	study     *risk.Study
	srv       *serve.Server
	hs        *http.Server
	serveErr  chan error
	cl        *client
	portfolio []byte // the /v1/portfolio answer of set-up
}

// startDesk sets up a desk as cmd/quoteserver does, then asks for the
// portfolio report, which runs the study and builds the cube. It
// returns the time from Warm to the report: the set-up a user waits
// for before the desk answers every endpoint.
func startDesk(ctx context.Context, cfg risk.Config, wrap func(http.Handler) http.Handler, tr *tracer) (*desk, time.Duration, error) {
	study := risk.NewStudy(cfg)
	srv := serve.New(study, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, srv.Drain(ctx))
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	conns := runtime.GOMAXPROCS(0)
	d := &desk{
		study:    study,
		srv:      srv,
		hs:       &http.Server{Handler: h},
		serveErr: make(chan error, 1),
		cl: &client{
			base: "http://" + ln.Addr().String(),
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
			tr:   tr,
		},
	}
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	t0 := time.Now()
	err = srv.Warm(ctx)
	if err == nil {
		d.portfolio, err = d.cl.get(ctx, "/v1/portfolio")
	}
	setup := time.Since(t0)
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("desk set-up: %w", err), d.close(ctx))
	}
	return d, setup, nil
}

// close stops the HTTP server, waits for it, and drains the quote pool.
func (d *desk) close(ctx context.Context) error {
	err := d.hs.Shutdown(ctx)
	if serr := <-d.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.cl.http.CloseIdleConnections()
	return errors.Join(err, d.srv.Drain(ctx))
}

// quoteAnswer is a served quote.
type quoteAnswer struct {
	quoteView
	ElapsedMS float64 `json:"elapsed_ms"`
}

// phases is what the three traffic phases saw.
type phases struct {
	open     []call
	answers  []quoteAnswer // decoded open-loop answers, by call
	capacity float64       // quotes per second, closed loop
}

// runPhases drives the open-loop, capacity and cube phases and checks
// every answer: quotes must be 200s and agree with every other answer
// for the same contract and trial count, cube reads must equal their
// check=direct answer byte for byte. Seeded draws make the traffic.
func (d *desk) runPhases(ctx context.Context, o options, r *result, cfg risk.Config, direct map[string][]byte, rng *rand.Rand, traceOn *atomic.Bool) phases {
	small, large := quoteSizes(o.tiny)
	senders := runtime.GOMAXPROCS(0)
	secs := o.seconds.Seconds()
	var ph phases
	seen := map[quoteReq]quoteView{}
	check := func(c *call) quoteAnswer {
		var a quoteAnswer
		err := c.err
		if err == nil && c.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", c.status, c.body)
		}
		if err == nil {
			err = json.Unmarshal(c.body, &a)
		}
		if err == nil {
			if prev, ok := seen[c.req]; ok {
				err = sameJSON("repeated quote", prev, a.quoteView)
			} else {
				seen[c.req] = a.quoteView
			}
		}
		if err != nil {
			err = fmt.Errorf("quote %+v: %w", c.req, err)
		}
		r.op(err)
		return a
	}

	// The open loop and the capacity phase alternate in rounds, so both
	// sample the host over the whole run rather than one spell of it.
	n := max(int(math.Round(quoteRate*openShare*secs)), 1)
	reqs := quoteMix(rng, n, cfg.Contracts, small, large)
	capDur := time.Duration(capacityShare * float64(o.seconds) / deskRounds)
	// capacity runs one closed-loop round from firstID and returns the
	// quotes it served and the time they took.
	capacity := func(firstID int64) (int, time.Duration) {
		mix := quoteMix(rng, 1000+int(1000*capDur.Seconds()), cfg.Contracts, small, large)
		calls, last := d.cl.closedLoop(ctx, len(mix), senders, capDur, firstID, func(start time.Time, c *call, i int) {
			c.req = mix[i]
			d.cl.quote(ctx, start, c)
		})
		for i := range calls {
			check(&calls[i])
		}
		return len(calls), last
	}
	// One untimed round first warms the desk and its heap up to load.
	capacity(900_001)
	var served, tracedServed int
	var took, tracedTook time.Duration
	for k := range deskRounds {
		lo, hi := k*n/deskRounds, (k+1)*n/deskRounds
		open := d.cl.openLoop(ctx, reqs[lo:hi], poissonArrivals(rng, hi-lo, quoteRate), senders, int64(1+lo))
		for i := range open {
			ph.answers = append(ph.answers, check(&open[i]))
		}
		ph.open = append(ph.open, open...)

		firstID := int64(1_000_001 + k*100_000)
		if traceOn == nil {
			q, t := capacity(firstID)
			served, took = served+q, took+t
			continue
		}
		// The traced run measures its own overhead: the same round with
		// spans off, then on.
		traceOn.Store(false)
		tracer := d.cl.tr
		d.cl.tr = nil
		q, t := capacity(firstID)
		served, took = served+q, took+t
		d.cl.tr = tracer
		traceOn.Store(true)
		q, t = capacity(firstID + 50_000)
		tracedServed, tracedTook = tracedServed+q, tracedTook+t
	}
	ph.capacity = float64(served) / took.Seconds()
	if traceOn != nil {
		ph.capacity = float64(tracedServed) / tracedTook.Seconds()
		r.set("trace.overhead_ratio", float64(served)/took.Seconds()/ph.capacity, 2)
	}

	filters := cubeFilters(cfg.CubeDims, warehouse.DefaultAttrs(cfg.Contracts))
	cubeDur := time.Duration(cubeShare * float64(o.seconds))
	picks := make([]int, 1000+int(20_000*cubeDur.Seconds()))
	for i := range picks {
		picks[i] = rng.IntN(len(filters))
	}
	// Each read is checked as it lands and its body dropped, so the
	// generator's memory stays out of the desk's peak.
	reads, _ := d.cl.closedLoop(ctx, len(picks), senders, cubeDur, 3_000_001, func(start time.Time, c *call, i int) {
		key := fmt.Sprint(filters[picks[i]])
		d.cl.do(ctx, start, c, http.MethodGet, cubePath(filters[picks[i]], false), nil)
		if c.err == nil && c.status != http.StatusOK {
			c.err = fmt.Errorf("status %d: %s", c.status, c.body)
		}
		if c.err == nil && string(c.body) != string(direct[key]) {
			c.err = fmt.Errorf("answer %s differs from check=direct %s", c.body, direct[key])
		}
		if c.err != nil {
			c.err = fmt.Errorf("cube read %s: %w", key, c.err)
		}
		c.body = nil
	})
	for _, c := range reads {
		r.op(c.err)
	}
	return ph
}

// directCells fetches every cube cell's check=direct answer, which
// re-derives the cell from the per-contract registry.
func (d *desk) directCells(ctx context.Context, cfg risk.Config) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, f := range cubeFilters(cfg.CubeDims, warehouse.DefaultAttrs(cfg.Contracts)) {
		b, err := d.cl.get(ctx, cubePath(f, true))
		if err != nil {
			return nil, err
		}
		out[fmt.Sprint(f)] = b
	}
	return out, nil
}

// checkDirect prices a seeded sample of the distinct quotes served
// directly through Study.PriceContract and requires the served answers
// to equal it.
func (d *desk) checkDirect(ctx context.Context, r *result, ph phases, rng *rand.Rand) error {
	served := map[quoteReq]quoteView{}
	var keys []quoteReq
	for i, c := range ph.open {
		if c.status == http.StatusOK {
			if _, ok := served[c.req]; !ok {
				keys = append(keys, c.req)
			}
			served[c.req] = ph.answers[i].quoteView
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:min(8, len(keys))] {
		q, err := d.study.PriceContract(ctx, k.Contract, k.Trials)
		if err != nil {
			return fmt.Errorf("direct quote %+v: %w", k, err)
		}
		want := quoteView{ContractID: q.ContractID, Trials: q.Trials, AAL: q.AAL, StdDev: q.StdDev, TVaR99: q.TVaR99, PML250: q.PML250, Premium: q.Premium}
		r.op(sameJSON(fmt.Sprintf("served quote %+v against PriceContract", k), want, served[k]))
	}
	return nil
}

// runDesk is the untraced quote-desk run.
func runDesk(ctx context.Context, o options, r *result) (err error) {
	cfg := deskConfig(o.seed, o.tiny)
	var setups []float64
	var d *desk
	for range deskSetups {
		if d != nil {
			if err := d.close(ctx); err != nil {
				return err
			}
			// Free the discarded desk so peak memory is one desk's.
			d = nil
			debug.FreeOSMemory()
		}
		var setup time.Duration
		if d, setup, err = startDesk(ctx, cfg, nil, nil); err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
	}
	defer func() { err = errors.Join(err, d.close(ctx)) }()
	r.set("setup_s", median(setups), len(setups))

	direct, err := d.directCells(ctx, cfg)
	if err != nil {
		return err
	}
	rng := newRand(o.seed)
	ph := d.runPhases(ctx, o, r, cfg, direct, rng, nil)
	var lat []float64
	for i, c := range ph.open {
		if c.status == http.StatusOK && c.err == nil {
			lat = append(lat, ms(ph.open[i].latency()))
		}
	}
	p99, p := tail(lat)
	if p != 0.99 {
		fmt.Printf("note: %d served quotes; latency_p99_ms reads the %.4g percentile, the highest with ten samples beyond it\n", len(lat), 100*p)
	}
	r.set("latency_p50_ms", median(lat), len(lat))
	r.set("latency_p99_ms", p99, len(lat))
	r.set("throughput_per_s", ph.capacity, 1)
	if err := d.checkDirect(ctx, r, ph, rng); err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	r.set("peak_rss_mib", rss, 1)
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceHandler records a span around each request the desk handles
// while on is set, parented to the client's span for that request.
func traceHandler(h http.Handler, tr *tracer, on *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get("X-Perfbench-Span"), 10, 64)
		id, _ := strconv.ParseInt(req.Header.Get("X-Perfbench-Req"), 10, 64)
		_ = tr.do("serve."+path.Base(req.URL.Path), parent, id, func(int64) error {
			h.ServeHTTP(w, req)
			return nil
		})
	})
}

// quoteLayout is one contract's quote input as risk.Study caches it.
type quoteLayout struct {
	portfolio *layers.Portfolio
	index     *lossindex.Index
	flat      *lossindex.Flat
}

// replayLayouts builds every contract's single-contract loss index, as
// Study.WarmQuotes does during set-up.
func replayLayouts(bk *studyOut, tr *tracer) ([]quoteLayout, error) {
	out := make([]quoteLayout, len(bk.elts))
	for c := range out {
		l := &out[c]
		l.portfolio = &layers.Portfolio{Contracts: []layers.Contract{{
			ID:       bk.portfolio.Contracts[c].ID,
			ELTIndex: 0,
			Layers:   bk.portfolio.Contracts[c].Layers,
		}}}
		err := tr.do("lossindex.Build", 0, 0, func(int64) (err error) {
			l.index, err = lossindex.Build(bk.elts[c:c+1], l.portfolio)
			return err
		})
		if err == nil {
			err = tr.do("lossindex.Flatten", 0, 0, func(int64) (err error) {
				l.flat, err = lossindex.Flatten(l.index, l.portfolio)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		bk.counts["lossindex.bytes"] += float64(l.index.SizeBytes() + l.flat.SizeBytes())
	}
	return out, nil
}

// replayQuote makes the module calls Study.PriceContract makes for one
// quote, under spans sharing the served request's id.
func replayQuote(ctx context.Context, cfg risk.Config, bk *studyOut, l quoteLayout, c *call, tr *tracer, counts map[string]float64) (quoteView, error) {
	var q quoteView
	err := tr.do("risk.PriceContract", 0, c.id, func(root int64) error {
		var y *yelt.Table
		err := tr.do("yelt.Generate", root, c.id, func(int64) (err error) {
			y, err = yelt.Generate(ctx, bk.catalog, yelt.Config{NumTrials: c.req.Trials, Workers: cfg.Workers}, cfg.Seed+101)
			return err
		})
		if err != nil {
			return err
		}
		var res *aggregate.Result
		err = tr.do("aggregate.Parallel.Run", root, c.id, func(int64) (err error) {
			in := &aggregate.Input{YELT: y, ELTs: bk.elts[c.req.Contract : c.req.Contract+1], Portfolio: l.portfolio, Index: l.index, Flat: l.flat}
			res, err = aggregate.Parallel{}.Run(ctx, in, aggregate.Config{Seed: cfg.Seed + 103, Sampling: true, Workers: cfg.Workers})
			return err
		})
		if err != nil {
			return err
		}
		var sum *metrics.Summary
		err = tr.do("metrics.Summarize", root, c.id, func(int64) (err error) {
			sum, err = metrics.Summarize(res.Portfolio)
			return err
		})
		if err != nil {
			return err
		}
		var pml float64
		err = tr.do("metrics.PML", root, c.id, func(int64) (err error) {
			pml, err = metrics.PML(res.Portfolio, 250)
			return err
		})
		counts["trials"] += float64(c.req.Trials)
		counts["yelt.occurrences"] += float64(y.Len())
		counts["yelt.bytes"] += float64(y.SizeBytes())
		counts["aggregate.peak_resident_bytes"] += float64(res.PeakResidentBytes)
		q = quoteView{
			ContractID: l.portfolio.Contracts[0].ID, Trials: c.req.Trials,
			AAL: sum.AAL, StdDev: sum.AggStdDev, TVaR99: sum.TVaR99, PML250: pml,
			Premium: sum.AAL + 0.35*sum.AggStdDev,
		}
		return err
	})
	return q, err
}

// traceDesk sets the desk up once, replays its portfolio run and quote
// layouts through the modules, drives the traffic phases with the
// serving tier's handler traced, and replays a seeded sample of the
// served quotes.
func traceDesk(ctx context.Context, o options, r *result, tr *tracer) (err error) {
	cfg := deskConfig(o.seed, o.tiny)
	on := new(atomic.Bool)
	d, _, err := startDesk(ctx, cfg, func(h http.Handler) http.Handler { return traceHandler(h, tr, on) }, tr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.close(ctx)) }()
	direct, err := d.directCells(ctx, cfg)
	if err != nil {
		return err
	}

	ccfg := deskCoreConfig(cfg)
	bk, err := replayStudy(ctx, ccfg, tr, 0)
	if err != nil {
		return fmt.Errorf("portfolio replay: %w", err)
	}
	var served struct {
		Catastrophe summaryView `json:"catastrophe"`
		Enterprise  summaryView `json:"enterprise"`
	}
	if err := json.Unmarshal(d.portfolio, &served); err != nil {
		return fmt.Errorf("portfolio answer: %w", err)
	}
	r.op(sameJSON("traced portfolio catastrophe summary", served.Catastrophe, viewOf(bk.cat)))
	r.op(sameJSON("traced portfolio enterprise summary", served.Enterprise, viewOf(bk.ent)))
	for _, f := range cubeFilters(cfg.CubeDims, warehouse.DefaultAttrs(cfg.Contracts)) {
		var want summaryView
		err := json.Unmarshal(direct[fmt.Sprint(f)], &want)
		if err == nil {
			var cell *warehouse.Cell
			if cell, err = bk.cube.Query(f); err == nil {
				err = sameJSON(fmt.Sprintf("traced cube cell %v", f), want, viewOf(cell.Summary))
			}
		}
		r.op(err)
	}
	layouts, err := replayLayouts(bk, tr)
	if err != nil {
		return fmt.Errorf("quote layout replay: %w", err)
	}
	setupSpans := tr.byName(nil)

	rng := newRand(o.seed)
	on.Store(true)
	ph := d.runPhases(ctx, o, r, cfg, direct, rng, on)
	on.Store(false)
	queryCube(r, ccfg, func(f map[string]string) error {
		_, err := d.study.CubeQuery(f)
		return err
	})
	if err := d.checkDirect(ctx, r, ph, rng); err != nil {
		return err
	}
	var statz struct {
		Rejected int64 `json:"rejected"`
		Timeouts int64 `json:"timeouts"`
	}
	b, err := d.cl.get(ctx, "/v1/statz")
	if err == nil {
		err = json.Unmarshal(b, &statz)
	}
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	r.set("serve.rejected", float64(statz.Rejected), 1)
	r.set("serve.timeouts", float64(statz.Timeouts), 1)

	// Replay a seeded sample of served quotes in the traffic's 9:1 mix.
	small, large := quoteSizes(o.tiny)
	want := map[int]int{large: replayQuotes / 10, small: replayQuotes - replayQuotes/10}
	var pick []int
	for _, i := range rng.Perm(len(ph.open)) {
		if c := ph.open[i]; c.status == http.StatusOK && want[c.req.Trials] > 0 {
			want[c.req.Trials]--
			pick = append(pick, i)
		}
	}
	counts := map[string]float64{}
	for _, i := range pick {
		c := &ph.open[i]
		q, err := replayQuote(ctx, cfg, bk, layouts[c.req.Contract], c, tr, counts)
		if err != nil {
			return fmt.Errorf("quote replay: %w", err)
		}
		r.op(sameJSON(fmt.Sprintf("traced quote %+v", c.req), ph.answers[i].quoteView, q))
	}

	bk.report(r, setupSpans, 1)
	quoteSpans := tr.byName(func(s span) bool { return s.Req != 0 })
	ps := quoteSpans["metrics.PML"]
	qs := quoteSpans["metrics.Summarize"]
	reportStage2(r, quoteSpans, counts, len(pick))
	r.set("metrics.summarize_s", (qs.total+ps.total).Seconds()/float64(len(pick)), len(pick))
	reportServing(r, tr, ph)
	return nil
}

// reportServing sets the risk, serve and loadgen layers from the
// open-loop calls, their answers and the server-side spans.
func reportServing(r *result, tr *tracer, ph phases) {
	handler := map[int64]float64{}
	var cube []float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		d := ms(time.Duration(s.End - s.Start))
		switch {
		case s.Name == "serve.quote" && s.Req >= 1 && s.Req <= int64(len(ph.open)):
			handler[s.Req] = d
		case s.Name == "serve.cube":
			cube = append(cube, d)
		}
	}
	tr.mu.Unlock()
	var price, hand, wait, lag []float64
	for i, c := range ph.open {
		lag = append(lag, ms(c.sent-c.due))
		if c.status != http.StatusOK {
			continue
		}
		price = append(price, ph.answers[i].ElapsedMS)
		if h, ok := handler[c.id]; ok {
			hand = append(hand, h)
			wait = append(wait, h-ph.answers[i].ElapsedMS)
		}
	}
	set2 := func(name string, xs []float64) {
		p99, _ := tail(xs)
		r.set(name+"_p50_ms", median(xs), len(xs))
		r.set(name+"_p99_ms", p99, len(xs))
	}
	set2("risk.price", price)
	set2("serve.handler", hand)
	set2("serve.wait", wait)
	set2("serve.cube", cube)
	set2("loadgen.lag", lag)
	r.set("loadgen.served", float64(len(price)), len(ph.open))
}
