package dfa

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/ylt"
)

func catTable(n int, seed uint64) *ylt.Table {
	t := ylt.New("cat", n)
	st := rng.New(seed)
	for i := range t.Agg {
		// Heavy-tailed cat losses: many small years, some huge.
		if st.Float64() < 0.3 {
			t.Agg[i] = st.Pareto(1e6, 1.6)
		}
		t.OccMax[i] = t.Agg[i] * 0.7
	}
	return t
}

func TestRunShapes(t *testing.T) {
	cat := catTable(5000, 1)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	res, err := ig.Run(context.Background(), cat, Config{Seed: 3, Rho: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) != 6 {
		t.Fatalf("sources = %d", len(res.PerSource))
	}
	if res.Enterprise.NumTrials() != 5000 {
		t.Fatal("enterprise trials wrong")
	}
	if !res.Enterprise.HasOccurrence() {
		t.Fatal("enterprise should inherit occurrence data from cat")
	}
	if res.TotalBytes <= cat.SizeBytes() {
		t.Fatal("TotalBytes should count all tables")
	}
	// Enterprise = cat + sum of sources, per trial.
	for trial := 0; trial < 5000; trial += 97 {
		sum := cat.Agg[trial]
		for _, s := range res.PerSource {
			sum += s.Agg[trial]
		}
		if math.Abs(sum-res.Enterprise.Agg[trial]) > 1e-9*(1+math.Abs(sum)) {
			t.Fatalf("trial %d: enterprise %v != sum %v", trial, res.Enterprise.Agg[trial], sum)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cat := catTable(3000, 2)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	a, err := ig.Run(context.Background(), cat, Config{Seed: 7, Rho: 0.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ig.Run(context.Background(), cat, Config{Seed: 7, Rho: 0.15, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Enterprise.Agg {
		if a.Enterprise.Agg[i] != b.Enterprise.Agg[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestCorrelationInducedByCopula(t *testing.T) {
	// A continuous, finite-variance cat book so Pearson correlation is
	// an informative statistic (the production Pareto book with 70%
	// zero years dilutes Pearson even under strong rank dependence).
	cat := ylt.New("cat", 20000)
	st := rng.New(33)
	for i := range cat.Agg {
		cat.Agg[i] = st.LogNormal(13, 0.8)
		cat.OccMax[i] = cat.Agg[i] * 0.7
	}
	// A single investment source, strongly correlated to the cat book:
	// bad cat years should co-occur with investment losses.
	ig := &Integrator{Sources: []Source{Investment{Assets: 1e8, MeanReturn: 0.04, Volatility: 0.12}}}
	strong, err := ig.Run(context.Background(), cat, Config{Seed: 5, Rho: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rStrong := mathx.Correlation(cat.Agg, strong.PerSource[0].Agg)

	weak, err := ig.Run(context.Background(), cat, Config{Seed: 5, Rho: 0.0})
	if err != nil {
		t.Fatal(err)
	}
	rWeak := mathx.Correlation(cat.Agg, weak.PerSource[0].Agg)

	if rStrong < 0.2 {
		t.Fatalf("rho=0.7 should induce visible loss correlation, got %v", rStrong)
	}
	if math.Abs(rWeak) > 0.05 {
		t.Fatalf("rho=0 should leave sources uncorrelated, got %v", rWeak)
	}
	if rStrong <= rWeak {
		t.Fatal("correlation should increase with rho")
	}
}

func TestCorrelationRaisesTail(t *testing.T) {
	// With positive dependence the enterprise tail must be fatter than
	// under independence — the reason DFA bothers with copulas at all.
	cat := catTable(20000, 4)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	dep, err := ig.Run(context.Background(), cat, Config{Seed: 9, Rho: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := ig.Run(context.Background(), cat, Config{Seed: 9, Rho: 0})
	if err != nil {
		t.Fatal(err)
	}
	q := func(xs []float64) float64 {
		v, err := mathx.Quantile(xs, 0.995)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if q(dep.Enterprise.Agg) <= q(ind.Enterprise.Agg) {
		t.Fatalf("dependent 99.5%% quantile %v should exceed independent %v",
			q(dep.Enterprise.Agg), q(ind.Enterprise.Agg))
	}
}

func TestSourceMoments(t *testing.T) {
	st := rng.New(77)
	// Investment: mean loss ≈ -assets*meanReturn.
	inv := Investment{Assets: 1e6, MeanReturn: 0.05, Volatility: 0.1}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += inv.Loss(st.Float64Open(), st)
	}
	if got := sum / n; math.Abs(got+50_000) > 1500 {
		t.Errorf("investment mean loss = %v, want ~-50000", got)
	}

	// Reserve: mean-one development => mean loss ≈ 0.
	rsv := Reserve{Reserves: 1e6, CoV: 0.15}
	sum = 0
	for i := 0; i < n; i++ {
		sum += rsv.Loss(st.Float64Open(), st)
	}
	if got := sum / n; math.Abs(got) > 2000 {
		t.Errorf("reserve mean loss = %v, want ~0", got)
	}

	// Counterparty: mean ≈ recoverables · PD · LGD.
	cp := Counterparty{Recoverables: 1e6, N: 50, PD: 0.02, LGD: 0.5, FactorRho: 0.2}
	sum = 0
	for i := 0; i < n; i++ {
		sum += cp.Loss(st.Float64Open(), st)
	}
	want := 1e6 * 0.02 * 0.5
	if got := sum / n; math.Abs(got-want)/want > 0.1 {
		t.Errorf("counterparty mean loss = %v, want ~%v", got, want)
	}

	// Operational: mean ≈ freq · sevMean.
	op := Operational{Freq: 2, SevMean: 1000, SevCoV: 1.0, StressBeta: 0.2}
	sum = 0
	for i := 0; i < n; i++ {
		sum += op.Loss(st.Float64Open(), st)
	}
	if got := sum / n; math.Abs(got-2000)/2000 > 0.08 {
		t.Errorf("operational mean loss = %v, want ~2000", got)
	}
}

func TestCounterpartyEdgeCases(t *testing.T) {
	st := rng.New(1)
	if (Counterparty{N: 0, PD: 0.1}).Loss(0.5, st) != 0 {
		t.Error("no counterparties means no loss")
	}
	if (Counterparty{N: 10, PD: 0}).Loss(0.5, st) != 0 {
		t.Error("zero PD means no loss")
	}
}

func TestOperationalZeroFrequency(t *testing.T) {
	st := rng.New(1)
	op := Operational{Freq: 0, SevMean: 1000, SevCoV: 1}
	if op.Loss(0.9, st) != 0 {
		t.Error("zero frequency must produce zero loss")
	}
}

func TestMarketCycleStates(t *testing.T) {
	mc := MarketCycle{Premium: 1000, SoftProb: 0.3, HardProb: 0.2, SoftMargin: 0.1, HardMargin: 0.05}
	st := rng.New(1)
	if got := mc.Loss(0.9, st); got != 100 {
		t.Errorf("soft market loss = %v, want 100", got)
	}
	if got := mc.Loss(0.5, st); got != 0 {
		t.Errorf("neutral market loss = %v, want 0", got)
	}
	if got := mc.Loss(0.05, st); got != -50 {
		t.Errorf("hard market loss = %v, want -50", got)
	}
}

func TestRunValidation(t *testing.T) {
	ig := &Integrator{Sources: StandardSources(1)}
	if _, err := ig.Run(context.Background(), nil, Config{}); err == nil {
		t.Error("nil cat should error")
	}
	if _, err := ig.Run(context.Background(), ylt.New("c", 0), Config{}); err == nil {
		t.Error("empty cat should error")
	}
	empty := &Integrator{}
	if _, err := empty.Run(context.Background(), catTable(10, 1), Config{}); err == nil {
		t.Error("no sources should error")
	}
	// Wrong-size custom correlation matrix.
	bad := mathx.Identity(3)
	if _, err := ig.Run(context.Background(), catTable(10, 1), Config{Corr: bad}); err == nil {
		t.Error("wrong correlation size should error")
	}
	// Invalid rho.
	if _, err := ig.Run(context.Background(), catTable(10, 1), Config{Rho: 1.5}); err == nil {
		t.Error("invalid rho should error")
	}
}

// A non-finite catastrophe loss has no rank; Run must name the trial
// rather than integrate it.
func TestRunRejectsNonFiniteCat(t *testing.T) {
	ig := &Integrator{Sources: StandardSources(1e6)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, occ := range []bool{false, true} {
			cat := catTable(1000, 3)
			col := cat.Agg
			if occ {
				col = cat.OccMax
			}
			col[612], col[800] = bad, bad
			_, err := ig.Run(context.Background(), cat, Config{Seed: 1, Rho: 0.2})
			if err == nil || !strings.Contains(err.Error(), "trial 612 ") {
				t.Errorf("loss %v (occurrence column %v): err = %v, want an error naming trial 612", bad, occ, err)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	cat := catTable(100000, 5)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ig.Run(ctx, cat, Config{Rho: 0.1}); err == nil {
		t.Error("cancelled run should error")
	}
}

func TestStandardSourcesScale(t *testing.T) {
	srcs := StandardSources(0) // degenerate AAL
	if len(srcs) != 6 {
		t.Fatalf("sources = %d", len(srcs))
	}
	names := map[string]bool{}
	for _, s := range srcs {
		names[s.Name()] = true
	}
	for _, want := range []string{"investment", "interest-rate", "reserve", "market-cycle", "counterparty", "operational"} {
		if !names[want] {
			t.Errorf("missing source %q", want)
		}
	}
}
