package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/risk"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bench.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestTinyRuns runs every workload at tiny size, untraced and traced,
// and requires a correct result carrying exactly the declared metrics.
func TestTinyRuns(t *testing.T) {
	e2e, layers, names := declared(t)
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(w+map[bool]string{false: "", true: "/traced"}[trace], func(t *testing.T) {
				line, err := run(context.Background(), options{
					workload: w, seed: 7, seconds: 2 * time.Second, trace: trace,
					root: t.TempDir(), tiny: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				var res resultJSON
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %s", line)
				}
				want := e2e
				if trace {
					want = layers
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !trace && m.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", name)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metrics %v, declared %v", got, want)
				}
			})
		}
	}
}

// perturbFloats calls fn once per float64 reachable in v (a pointer),
// with that float moved up by one ulp, then restores it.
func perturbFloats(v reflect.Value, path string, fn func(path string)) {
	switch v.Kind() {
	case reflect.Pointer:
		perturbFloats(v.Elem(), path, fn)
	case reflect.Struct:
		for i := range v.NumField() {
			perturbFloats(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		for i := range v.Len() {
			perturbFloats(v.Index(i), path+"[]", fn)
		}
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(math.Nextafter(old, math.Inf(1)))
		fn(path)
		v.SetFloat(old)
	}
}

// TestGatesCatchOneULP perturbs each float of a real summary and a real
// quote by one ulp and requires every gate to reject it: the study and
// traced-run gate (sameSummary), the quote gate and the cube gate, which
// compares encoded answers.
func TestGatesCatchOneULP(t *testing.T) {
	ctx := context.Background()
	study := risk.NewStudy(risk.Config{Seed: 5, Events: 300, Contracts: 2, LocationsPerContract: 8, Trials: 2000, Workers: 1})
	q, err := study.PriceContract(ctx, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.New(studyConfig("study-default", 5, true)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sum := rep.Catastrophe
	if len(sum.ReturnRows) == 0 {
		t.Fatal("summary has no return-period rows to perturb")
	}

	ref := *sum
	ref.ReturnRows = append([]metrics.ReturnRow(nil), sum.ReturnRows...)
	n := 0
	perturbFloats(reflect.ValueOf(sum), "summary", func(path string) {
		n++
		if sameSummary("study", &ref, sum) == nil {
			t.Errorf("study gate missed a one-ulp change in %s", path)
		}
		a, _ := json.Marshal(viewOf(&ref))
		b, _ := json.Marshal(viewOf(sum))
		if string(a) == string(b) {
			t.Errorf("cube gate missed a one-ulp change in %s", path)
		}
	})
	want := quoteView{ContractID: q.ContractID, Trials: q.Trials, AAL: q.AAL, StdDev: q.StdDev, TVaR99: q.TVaR99, PML250: q.PML250, Premium: q.Premium}
	got := want
	perturbFloats(reflect.ValueOf(&got), "quote", func(path string) {
		n++
		if sameJSON("quote", want, got) == nil {
			t.Errorf("quote gate missed a one-ulp change in %s", path)
		}
	})
	if n < 10 {
		t.Fatalf("perturbed only %d floats", n)
	}
	if err := sameSummary("unchanged", &ref, sum); err != nil {
		t.Fatal(err)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 990 || p != 0.99 {
		t.Errorf("tail of 1..1000 = %v at %v, want 990 at 0.99", v, p)
	}
	if v, _ := tail(xs[:100]); v != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (ten samples beyond)", v)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 1 {
		t.Errorf("tail of 1..5 = %v at %v, want the maximum", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCovered(t *testing.T) {
	got := covered(0, 100, [][2]int64{{50, 70}, {10, 20}, {15, 30}, {90, 120}})
	if got != 20+20+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestQuoteMix(t *testing.T) {
	mix := quoteMix(newRand(1), 1000, 16, 5, 50)
	large := 0
	for _, q := range mix {
		if q.Trials == 50 {
			large++
		}
		if q.Contract < 0 || q.Contract >= 16 {
			t.Fatalf("contract %d", q.Contract)
		}
	}
	if large != 100 {
		t.Errorf("%d large quotes in 1000, want 100", large)
	}
	if !strings.Contains(cubePath(map[string]string{"region": "a b"}, true), "check=direct") {
		t.Error("direct cube path lacks check=direct")
	}
}
