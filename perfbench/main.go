// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks the program's outputs, and prints every
// metric by name with its unit and sample count, then the result as one
// JSON line.
//
//	perfbench --workload study-default --seed 1 --seconds 36 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - study-default: the riskpipeline defaults through core.Pipeline.
//   - study-deep: 30 locations per contract, 1,000,000 trials, expected
//     mode, cube over region,lob.
//   - quote-desk: a warmed risk.Study behind serve.New on loopback HTTP,
//     driven open-loop, then closed-loop, then through cube reads.
//
// With --trace 0 the run reports the end-to-end metrics, measured only
// through the APIs the CLIs use. With --trace 1 it replays each module
// call from this package under spans, checks that the replay reproduces
// the untraced outputs bit for bit, and reports the per-layer metrics.
// The spans are written to .bench_build/traces when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. A request is one
// study on the study workloads and one quote on quote-desk.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics of a traced run. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"catalog.generate_s", "s"},
	{"exposure.generate_s", "s"},
	{"catmodel.run_s", "s"},
	{"catmodel.pairs", "count"},
	{"catmodel.pairs_per_s", "1/s"},
	{"catmodel.elt_records", "count"},
	{"catmodel.event_hit_ratio", "ratio"},
	{"lossindex.build_s", "s"},
	{"lossindex.bytes", "bytes"},
	{"yelt.generate_s", "s"},
	{"yelt.occurrences", "count"},
	{"yelt.bytes", "bytes"},
	{"aggregate.run_s", "s"},
	{"aggregate.trials_per_s", "1/s"},
	{"aggregate.peak_resident_bytes", "bytes"},
	{"warehouse.fold_s", "s"},
	{"warehouse.finalize_s", "s"},
	{"warehouse.cube_bytes", "bytes"},
	{"warehouse.cells", "count"},
	{"warehouse.query_p50_us", "us"},
	{"warehouse.query_p99_us", "us"},
	{"dfa.run_s", "s"},
	{"dfa.bytes", "bytes"},
	{"metrics.summarize_s", "s"},
	{"metrics.summarize_calls", "count"},
	{"risk.price_p50_ms", "ms"},
	{"risk.price_p99_ms", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.timeouts", "count"},
	{"serve.cube_p50_ms", "ms"},
	{"serve.cube_p99_ms", "ms"},
	{"loadgen.lag_p50_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.served", "count"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = []string{"study-default", "study-deep", "quote-desk"}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the repository checkout; traces go under root/.bench_build.
	root string
	// tiny shrinks every input so the self-tests run in seconds.
	tiny bool
}

// result accumulates one run's operations, gate failures and metrics.
type result struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

// op counts one attempted operation or output check; a non-nil err
// counts it as failed and is logged to standard error.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
	}
}

// set records a metric measured over n samples.
func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish prints every metric of defs with its unit and sample count,
// then the result line. A metric the run did not set is a bug in the
// benchmark and is reported as an error.
func (r *result) finish(defs []metricDef) (string, error) {
	out := resultJSON{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	out.Correct = r.failed == 0 && r.attempted > 0
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("metric %-30s %14.6g %-6s n=%d\n", d.name, v, d.unit, r.samples[d.name])
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	fmt.Printf("operations attempted=%d failed=%d failed_ratio=%g\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func run(ctx context.Context, o options) (string, error) {
	prov := provenance(o)
	pb, err := json.Marshal(prov)
	if err != nil {
		return "", err
	}
	fmt.Printf("provenance %s\n", pb)
	r := newResult()
	defs := endToEnd
	if o.trace {
		defs = perLayer
		for _, d := range perLayer {
			r.set(d.name, 0, 0)
		}
		tr := newTracer()
		if o.workload == "quote-desk" {
			err = traceDesk(ctx, o, r, tr)
		} else {
			err = traceStudy(ctx, o, r, tr)
		}
		if err == nil {
			err = tr.write(o, prov)
		}
	} else {
		if o.workload == "quote-desk" {
			err = runDesk(ctx, o, r)
		} else {
			err = runStudy(ctx, o, r)
		}
	}
	if err != nil {
		return "", err
	}
	return r.finish(defs)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 36, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	line, err := run(context.Background(), options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     ".",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}
