package cluster

import (
	"math"
	"testing"
)

func TestSimulateStaticSmallFleet(t *testing.T) {
	phases := []Phase{
		{Name: "a", Work: 100, MaxParallelism: 10},
		{Name: "b", Work: 1000, MaxParallelism: 100},
	}
	res, err := Simulate(phases, Static{N: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Phase a: 100/10 = 10s; phase b capped at 10 procs: 100s.
	if math.Abs(res.Makespan-110) > 1e-9 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	// Fully utilized: allocation == busy in both phases.
	if math.Abs(res.Utilization-1) > 1e-9 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
}

func TestSimulateStaticOverProvisioned(t *testing.T) {
	phases := PipelinePhases(1000)
	// A fleet sized for the stage-2 peak idles through stages 1 and 3.
	res, err := Simulate(phases, Static{N: 5000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization > 0.9 {
		t.Fatalf("peak-sized static fleet should waste capacity, utilization = %v", res.Utilization)
	}
	elastic, err := Simulate(phases, Elastic{Max: 5000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(elastic.Utilization-1) > 1e-9 {
		t.Fatalf("elastic utilization = %v, want 1", elastic.Utilization)
	}
	// Same makespan (both run each phase at its ceiling), but the
	// static fleet pays for idle processors.
	if math.Abs(elastic.Makespan-res.Makespan) > 1e-9 {
		t.Fatalf("makespans differ: %v vs %v", elastic.Makespan, res.Makespan)
	}
	if elastic.AllocatedSecs >= res.AllocatedSecs {
		t.Fatalf("elastic bill %v should be below static %v", elastic.AllocatedSecs, res.AllocatedSecs)
	}
}

func TestElasticCap(t *testing.T) {
	phases := []Phase{{Name: "x", Work: 100, MaxParallelism: 1000}}
	res, err := Simulate(phases, Elastic{Max: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("capped elastic makespan = %v", res.Makespan)
	}
}

func TestTimelineSampling(t *testing.T) {
	phases := []Phase{
		{Name: "a", Work: 10, MaxParallelism: 1},
		{Name: "b", Work: 10, MaxParallelism: 2},
	}
	res, err := Simulate(phases, Elastic{Max: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Phase a: 10s at 1 proc; phase b: 5s at 2 procs. Samples at t=0..14.
	if len(res.Timeline) != 15 {
		t.Fatalf("timeline samples = %d", len(res.Timeline))
	}
	if res.Timeline[0].Phase != "a" || res.Timeline[12].Phase != "b" {
		t.Fatalf("phases along timeline wrong: %+v", res.Timeline)
	}
	for _, s := range res.Timeline {
		if s.Busy > s.Allocated {
			t.Fatal("busy cannot exceed allocated")
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, Static{N: 1}, 0); err == nil {
		t.Fatal("no phases should error")
	}
	if _, err := Simulate([]Phase{{Work: 0, MaxParallelism: 1}}, Static{N: 1}, 0); err == nil {
		t.Fatal("zero work should error")
	}
	if _, err := Simulate([]Phase{{Work: 1, MaxParallelism: 0}}, Static{N: 1}, 0); err == nil {
		t.Fatal("zero parallelism should error")
	}
	if _, err := Simulate([]Phase{{Work: 1, MaxParallelism: 1}}, Static{N: 0}, 0); err == nil {
		t.Fatal("zero-processor policy should error")
	}
}

func TestCompare(t *testing.T) {
	phases := PipelinePhases(100)
	results, err := Compare(phases, []Policy{Static{N: 8}, Static{N: 5000}, Elastic{Max: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Small static fleet: cheap but slow. Elastic: fast and efficient.
	small, peak, elastic := results[0], results[1], results[2]
	if small.Makespan <= elastic.Makespan {
		t.Fatal("8-processor fleet should be much slower than elastic")
	}
	if peak.Utilization >= elastic.Utilization {
		t.Fatal("peak static fleet should be less utilized than elastic")
	}
	if small.Policy != "static-8" || elastic.Policy != "elastic-max5000" {
		t.Fatal("policy names")
	}
}

func TestPipelinePhasesShape(t *testing.T) {
	phases := PipelinePhases(10)
	if len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	// The paper's profile: stage 1 under ten processors, stage 2
	// thousands.
	if phases[0].MaxParallelism >= 10 {
		t.Fatal("stage 1 should demand fewer than ten processors")
	}
	if phases[1].MaxParallelism < 1000 {
		t.Fatal("stage 2 should demand thousands")
	}
	if phases[1].Work <= phases[0].Work {
		t.Fatal("stage 2 dominates work")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", nil},
		{"static:8", Static{N: 8}},
		{"elastic:64", Elastic{Max: 64}},
		{"degraded:2:elastic:64", Degraded{Inner: Elastic{Max: 64}, Lost: 2}},
		{"degraded:0:static:8", Degraded{Inner: Static{N: 8}, Lost: 0}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParsePolicy(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
	for _, bad := range badPolicies {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%q) should error", bad)
		}
	}
}

// badPolicies are the specs TestParsePolicy rejects; with its accepted
// specs they seed FuzzParsePolicy.
var badPolicies = []string{"static", "static:", "static:0", "static:-3", "elastic:x",
	"spot:4", "8", "degraded:2", "degraded:x:static:8", "degraded:-1:static:8", "degraded:2:"}

// ParsePolicy never panics, and every spec it accepts is nil only when
// empty, and otherwise a valid policy: a positive fleet or cap, a
// non-negative loss over a non-nil valid inner policy, and at least one
// processor provisioned for any demand.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range append([]string{"", "static:8", "elastic:64", "degraded:2:elastic:64", "degraded:0:static:8"}, badPolicies...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicy(spec)
		if err != nil {
			return
		}
		if p == nil {
			if spec != "" {
				t.Fatalf("ParsePolicy(%q) accepted a spec as no policy", spec)
			}
			return
		}
		var check func(Policy)
		check = func(p Policy) {
			switch q := p.(type) {
			case Static:
				if q.N <= 0 {
					t.Fatalf("ParsePolicy(%q): %#v", spec, q)
				}
			case Elastic:
				if q.Max <= 0 {
					t.Fatalf("ParsePolicy(%q): %#v", spec, q)
				}
			case Degraded:
				if q.Lost < 0 || q.Inner == nil {
					t.Fatalf("ParsePolicy(%q): %#v", spec, q)
				}
				check(q.Inner)
			default:
				t.Fatalf("ParsePolicy(%q): unknown policy %#v", spec, q)
			}
		}
		check(p)
		for _, demand := range []int{1, 8, 5000} {
			if n := p.Provision(demand); n < 1 {
				t.Fatalf("ParsePolicy(%q) provisions %d processors for demand %d", spec, n, demand)
			}
		}
		_ = p.Name()
	})
}

// A degraded fleet never provisions below one processor, stretches the
// stage proportionally, and names both the loss and the inner policy.
func TestDegradedPolicy(t *testing.T) {
	d := Degraded{Inner: Static{N: 8}, Lost: 2}
	if got := d.Provision(100); got != 6 {
		t.Fatalf("Provision = %d, want 6", got)
	}
	if got := (Degraded{Inner: Static{N: 2}, Lost: 5}).Provision(100); got != 1 {
		t.Fatalf("floor Provision = %d, want 1", got)
	}
	if d.Name() != "degraded-2(static-8)" {
		t.Fatalf("Name = %q", d.Name())
	}
	phases := []Phase{{Name: "x", Work: 60, MaxParallelism: 100}}
	healthy, err := Simulate(phases, Static{N: 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Simulate(phases, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same surviving capacity, same makespan: losing 2 of 8 equals a
	// healthy fleet of 6.
	if math.Abs(degraded.Makespan-healthy.Makespan) > 1e-9 {
		t.Fatalf("degraded makespan %v != healthy-6 %v", degraded.Makespan, healthy.Makespan)
	}
}
