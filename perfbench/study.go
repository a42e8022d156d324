package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/aggregate"
	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/warehouse"
	"repro/internal/yelt"
)

// studyConfig returns a study workload's pipeline configuration.
// study-default is what the riskpipeline CLI runs without flags: stage
// 1 is most of its time. study-deep keeps the catalogue, trades
// locations for the paper's 1M trials in expected mode and builds the
// cube, so stage 2, the cube write path, DFA and the summaries dominate.
func studyConfig(workload string, seed uint64, tiny bool) core.Config {
	cfg := core.Config{
		Seed:                 seed,
		NumEvents:            10_000,
		NumContracts:         16,
		LocationsPerContract: 300,
		NumTrials:            100_000,
		Engine:               aggregate.Parallel{},
		Kernel:               aggregate.KernelBlocked,
		Sampling:             true,
		Rho:                  0.25,
		TwoLayers:            true,
	}
	if workload == "study-deep" {
		cfg.LocationsPerContract = 30
		cfg.NumTrials = 1_000_000
		cfg.Sampling = false
		cfg.CubeDims = []string{"region", "lob"}
	}
	if tiny {
		cfg.NumEvents = 400
		cfg.NumContracts = 4
		cfg.LocationsPerContract = 10
		cfg.NumTrials = cfg.NumTrials / 100
	}
	// core.New fills the defaults the CLI leaves unset, so the replay
	// below sees exactly the configuration Pipeline.Run uses.
	return core.New(cfg).Cfg
}

// pipelineSink keeps timed constructions from being optimized away.
var pipelineSink *core.Pipeline

// timeConstruction times core.New, all the set-up a study has, in
// batches and returns the median seconds per construction and the
// batch count.
func timeConstruction(cfg core.Config) (float64, int) {
	const batches, per = 101, 1000
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for range per {
			pipelineSink = core.New(cfg)
		}
		xs[b] = time.Since(t0).Seconds() / per
	}
	return median(xs), batches
}

// runStudy is the untraced study run: whole Pipeline.Run calls until
// the next would overrun the measured time, at least one.
func runStudy(ctx context.Context, o options, r *result) error {
	cfg := studyConfig(o.workload, o.seed, o.tiny)
	setup, n := timeConstruction(cfg)
	r.set("setup_s", setup, n)
	var walls []float64
	var ref *core.Report
	begin := time.Now()
	for {
		p := core.New(cfg)
		t0 := time.Now()
		rep, err := p.Run(ctx)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("study run: %w", err)
		}
		r.op(nil)
		r.op(checkSummary("catastrophe summary", rep.Catastrophe, cfg.NumTrials))
		r.op(checkSummary("enterprise summary", rep.Enterprise, cfg.NumTrials))
		if ref == nil {
			ref = rep
			fmt.Printf("digest catastrophe=%s enterprise=%s\n", digest(rep.Catastrophe), digest(rep.Enterprise))
			// The peak of a fresh process running one study. Later runs
			// in the same process sometimes peak 11 MiB higher, after
			// garbage collection timing the program does not control.
			rss, err := peakRSSMiB()
			if err != nil {
				return err
			}
			r.set("peak_rss_mib", rss, 1)
		} else {
			r.op(sameSummary("repeated catastrophe summary", ref.Catastrophe, rep.Catastrophe))
			r.op(sameSummary("repeated enterprise summary", ref.Enterprise, rep.Enterprise))
		}
		walls = append(walls, wall.Seconds())
		// Free this run's tables before the next allocates its own.
		p, rep = nil, nil
		runtime.GC()
		if time.Since(begin)+wall > o.seconds {
			break
		}
	}
	worst, _ := tail(walls)
	r.set("latency_p50_ms", 1000*median(walls), len(walls))
	r.set("latency_p99_ms", 1000*worst, len(walls))
	r.set("throughput_per_s", float64(len(walls))/sum(walls), len(walls))
	return nil
}

// traceStudy runs Pipeline.Run once untraced, then replays its module
// calls under spans, checks the replay against it and reports the
// per-layer metrics of the replay.
func traceStudy(ctx context.Context, o options, r *result, tr *tracer) error {
	cfg := studyConfig(o.workload, o.seed, o.tiny)
	p := core.New(cfg)
	t0 := time.Now()
	rep, err := p.Run(ctx)
	untraced := time.Since(t0)
	if err != nil {
		return fmt.Errorf("study run: %w", err)
	}
	r.op(nil)
	var refCells map[string]*metrics.Summary
	if p.Cube != nil {
		if refCells, err = cubeCells(p.Cube, cfg); err != nil {
			return err
		}
	}
	p = nil
	runtime.GC()

	t1 := time.Now()
	out, err := replayStudy(ctx, cfg, tr, 0)
	traced := time.Since(t1)
	if err != nil {
		return fmt.Errorf("study replay: %w", err)
	}
	r.op(sameSummary("traced catastrophe summary", rep.Catastrophe, out.cat))
	r.op(sameSummary("traced enterprise summary", rep.Enterprise, out.ent))
	if out.cube != nil {
		cells, err := cubeCells(out.cube, cfg)
		if err != nil {
			return err
		}
		for key, want := range refCells {
			r.op(sameSummary("traced cube cell "+key, want, cells[key]))
		}
		queryCube(r, cfg, func(f map[string]string) error {
			_, err := out.cube.Query(f)
			return err
		})
	}
	fmt.Printf("digest catastrophe=%s enterprise=%s\n", digest(out.cat), digest(out.ent))
	spans := tr.byName(nil)
	out.report(r, spans, 1)
	reportStage2(r, spans, out.counts, 1)
	r.set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), 1)
	return nil
}

// cubeCells reads every cell of a cube built over the default
// attributes, keyed by its filter.
func cubeCells(c *warehouse.Cube, cfg core.Config) (map[string]*metrics.Summary, error) {
	filters := cubeFilters(cfg.CubeDims, warehouse.DefaultAttrs(cfg.NumContracts))
	if len(filters) != c.Cells() {
		return nil, fmt.Errorf("cube has %d cells, the attributes give %d", c.Cells(), len(filters))
	}
	out := make(map[string]*metrics.Summary, len(filters))
	for _, f := range filters {
		cell, err := c.Query(f)
		if err != nil {
			return nil, fmt.Errorf("cube cell %v: %w", f, err)
		}
		out[fmt.Sprint(f)] = cell.Summary
	}
	return out, nil
}

// cubeFilters lists one filter per cube cell: each non-empty subset of
// dims with each value combination the contracts' attributes hold.
func cubeFilters(dims []string, attrs []map[string]string) []map[string]string {
	var out []map[string]string
	seen := map[string]bool{}
	for mask := 1; mask < 1<<len(dims); mask++ {
		for _, a := range attrs {
			f := map[string]string{}
			for i, d := range dims {
				if mask&(1<<i) != 0 {
					f[d] = a[d]
				}
			}
			if key := fmt.Sprint(f); !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// queryCube times direct cube queries over every cell in turn, the
// warehouse read path without serving.
func queryCube(r *result, cfg core.Config, query func(map[string]string) error) {
	filters := cubeFilters(cfg.CubeDims, warehouse.DefaultAttrs(cfg.NumContracts))
	const n = 4000
	us := make([]float64, 0, n)
	for i := range n {
		t0 := time.Now()
		err := query(filters[i%len(filters)])
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			r.op(fmt.Errorf("cube query: %w", err))
			return
		}
	}
	r.op(nil)
	p99, _ := tail(us)
	r.set("warehouse.query_p50_us", median(us), n)
	r.set("warehouse.query_p99_us", p99, n)
}

// studyOut is a replayed study: stage 1's artifacts, the outputs and
// the layer counts.
type studyOut struct {
	catalog   *catalog.Catalog
	elts      []*elt.Table
	portfolio *layers.Portfolio
	index     *lossindex.Index
	flat      *lossindex.Flat
	cat, ent  *metrics.Summary
	cube      *warehouse.Cube
	counts    map[string]float64
}

// replayStudy makes the module calls core.Pipeline.Run makes for cfg,
// in its order and with its seeds and worker counts, each under a span.
// Any drift from core shows as a failed comparison with Pipeline.Run.
func replayStudy(ctx context.Context, cfg core.Config, tr *tracer, parent int64) (*studyOut, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := &studyOut{counts: map[string]float64{}}
	err := tr.do("study", parent, 0, func(root int64) error {
		if err := replayStage1(ctx, cfg, workers, tr, root, out); err != nil {
			return err
		}
		return replayStage23(ctx, cfg, workers, tr, root, out)
	})
	return out, err
}

func replayStage1(ctx context.Context, cfg core.Config, workers int, tr *tracer, root int64, out *studyOut) error {
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = cfg.NumEvents
	ccfg.MeanEventsPerYear = cfg.MeanEventsPerYear
	err := tr.do("catalog.Generate", root, 0, func(int64) (err error) {
		out.catalog, err = catalog.Generate(ccfg, cfg.Seed)
		return err
	})
	if err != nil {
		return err
	}
	eng := catmodel.New()
	eng.Workers = workers
	for c := range cfg.NumContracts {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = cfg.LocationsPerContract
		var db *exposure.Database
		err := tr.do("exposure.Generate", root, 0, func(int64) (err error) {
			db, err = exposure.Generate(ecfg, cfg.Seed+uint64(1000+c))
			return err
		})
		if err != nil {
			return err
		}
		err = tr.do("catmodel.Engine.Run", root, 0, func(int64) error {
			t, err := eng.Run(ctx, out.catalog, db, uint32(c+1))
			out.elts = append(out.elts, t)
			return err
		})
		if err != nil {
			return err
		}
		out.counts["catmodel.pairs"] += float64(out.catalog.Len() * len(db.Interests))
		out.counts["catmodel.elt_records"] += float64(out.elts[c].Len())
	}
	out.counts["catmodel.event_hit_ratio"] = out.counts["catmodel.elt_records"] / float64(out.catalog.Len()*cfg.NumContracts)
	_ = tr.do("synth.BuildPortfolio", root, 0, func(int64) error {
		out.portfolio = synth.BuildPortfolio(out.elts, false, cfg.TwoLayers)
		return nil
	})
	err = tr.do("lossindex.Build", root, 0, func(int64) (err error) {
		out.index, err = lossindex.Build(out.elts, out.portfolio)
		return err
	})
	if err != nil {
		return err
	}
	err = tr.do("lossindex.Flatten", root, 0, func(int64) (err error) {
		out.flat, err = lossindex.Flatten(out.index, out.portfolio)
		return err
	})
	out.counts["lossindex.bytes"] = float64(out.index.SizeBytes() + out.flat.SizeBytes())
	return err
}

func replayStage23(ctx context.Context, cfg core.Config, workers int, tr *tracer, root int64, out *studyOut) error {
	var y *yelt.Table
	err := tr.do("yelt.Generate", root, 0, func(int64) (err error) {
		y, err = yelt.Generate(ctx, out.catalog, yelt.Config{NumTrials: cfg.NumTrials, Workers: cfg.Workers}, cfg.Seed+7)
		return err
	})
	if err != nil {
		return err
	}
	out.counts["yelt.occurrences"] = float64(y.Len())
	out.counts["yelt.bytes"] = float64(y.SizeBytes())
	in := &aggregate.Input{YELT: y, ELTs: out.elts, Portfolio: out.portfolio, Index: out.index, Flat: out.flat}
	aggCfg := aggregate.Config{
		Seed: cfg.Seed + 13, Sampling: cfg.Sampling, Workers: workers,
		BatchTrials: cfg.BatchTrials, Kernel: cfg.Kernel, TrialBlock: cfg.TrialBlock,
	}
	var builder *warehouse.Builder
	if len(cfg.CubeDims) > 0 {
		if builder, err = warehouse.NewBuilder(cfg.CubeDims, warehouse.DefaultAttrs(cfg.NumContracts), cfg.NumTrials, workers); err != nil {
			return err
		}
		aggCfg.PerContract = true
	}
	var res *aggregate.Result
	err = tr.do("aggregate.Parallel.Run", root, 0, func(id int64) (err error) {
		if builder != nil {
			aggCfg.BatchSink = func(lo int, agg, occ [][]float64) {
				_ = tr.do("warehouse.Builder.IngestBatch", id, 0, func(int64) error {
					// Errors latch in the builder and surface from Finalize.
					_ = builder.IngestBatch(lo, agg, occ)
					return nil
				})
			}
		}
		res, err = aggregate.Parallel{}.Run(ctx, in, aggCfg)
		return err
	})
	if err != nil {
		return err
	}
	out.counts["trials"] = float64(cfg.NumTrials)
	out.counts["aggregate.peak_resident_bytes"] = float64(res.PeakResidentBytes)
	if builder != nil {
		err := tr.do("warehouse.Builder.Finalize", root, 0, func(int64) (err error) {
			out.cube, err = builder.Finalize(ctx, res.PerContract)
			return err
		})
		if err != nil {
			return err
		}
		out.counts["warehouse.cube_bytes"] = float64(out.cube.SizeBytes())
		out.counts["warehouse.cells"] = float64(out.cube.Cells())
	}
	var dres *dfa.Result
	err = tr.do("dfa.Integrator.Run", root, 0, func(int64) (err error) {
		ig := &dfa.Integrator{Sources: dfa.StandardSources(res.Portfolio.Mean())}
		dres, err = ig.Run(ctx, res.Portfolio, dfa.Config{Seed: cfg.Seed + 29, Workers: workers, Rho: cfg.Rho})
		return err
	})
	if err != nil {
		return err
	}
	out.counts["dfa.bytes"] = float64(dres.TotalBytes)
	err = tr.do("metrics.Summarize", root, 0, func(int64) (err error) {
		out.cat, err = metrics.Summarize(res.Portfolio)
		return err
	})
	if err != nil {
		return err
	}
	return tr.do("metrics.Summarize", root, 0, func(int64) (err error) {
		out.ent, err = metrics.Summarize(dres.Enterprise)
		return err
	})
}

// report sets the stage-1, warehouse and DFA layer metrics of a
// replayed study from its spans and counts; requests is the number of
// studies the spans cover.
func (out *studyOut) report(r *result, spans map[string]layerTime, requests int) {
	per := func(d time.Duration) float64 { return d.Seconds() / float64(requests) }
	set := func(name string, v float64) { r.set(name, v, requests) }
	set("catalog.generate_s", per(spans["catalog.Generate"].total))
	set("exposure.generate_s", per(spans["exposure.Generate"].total))
	cm := spans["catmodel.Engine.Run"]
	set("catmodel.run_s", per(cm.total))
	set("catmodel.pairs_per_s", out.counts["catmodel.pairs"]/cm.total.Seconds())
	for _, name := range []string{"catmodel.pairs", "catmodel.elt_records", "catmodel.event_hit_ratio", "lossindex.bytes"} {
		set(name, out.counts[name])
	}
	set("lossindex.build_s", per(spans["lossindex.Build"].total+spans["lossindex.Flatten"].total))
	if out.cube != nil {
		set("warehouse.fold_s", per(spans["warehouse.Builder.IngestBatch"].total))
		set("warehouse.finalize_s", per(spans["warehouse.Builder.Finalize"].total))
		set("warehouse.cube_bytes", out.counts["warehouse.cube_bytes"])
		set("warehouse.cells", out.counts["warehouse.cells"])
	}
	set("dfa.run_s", per(spans["dfa.Integrator.Run"].total))
	set("dfa.bytes", out.counts["dfa.bytes"])
}

// reportStage2 sets the yelt, aggregate and metrics layers from spans
// and counts covering requests studies or quotes. The aggregate time is
// the engine's self time: its span minus the cube folds inside it.
func reportStage2(r *result, spans map[string]layerTime, counts map[string]float64, requests int) {
	per := func(d time.Duration) float64 { return d.Seconds() / float64(requests) }
	set := func(name string, v float64) { r.set(name, v, requests) }
	agg := spans["aggregate.Parallel.Run"].self
	set("yelt.generate_s", per(spans["yelt.Generate"].total))
	set("aggregate.run_s", per(agg))
	set("aggregate.trials_per_s", counts["trials"]/agg.Seconds())
	set("metrics.summarize_s", per(spans["metrics.Summarize"].total))
	set("metrics.summarize_calls", float64(spans["metrics.Summarize"].count)/float64(requests))
	for _, name := range []string{"yelt.occurrences", "yelt.bytes", "aggregate.peak_resident_bytes"} {
		set(name, counts[name]/float64(requests))
	}
}
