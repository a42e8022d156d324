package risk

import (
	"context"
	"math"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/metrics"
	"repro/internal/yelt"
)

// PriceContract reads PML250 off the summary's 250-year OEP row (or
// falls back to metrics.PML below 250 trials); either way it must equal
// metrics.PML over the quote's own portfolio YLT, re-simulated here
// from the same seeds.
func TestPriceContractPML250MatchesPML(t *testing.T) {
	ctx := context.Background()
	s := NewStudy(smallConfig(5))
	for _, trials := range []int{100, 5_000} {
		q, err := s.PriceContract(ctx, 2, trials)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.ensureModelled(ctx)
		if err != nil {
			t.Fatal(err)
		}
		idx, flat, single, err := s.quoteLayout(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		y, err := yelt.Generate(ctx, p.Catalog, yelt.Config{NumTrials: trials, Workers: s.cfg.Workers}, s.cfg.Seed+101)
		if err != nil {
			t.Fatal(err)
		}
		in := &aggregate.Input{YELT: y, ELTs: p.ELTs[2:3], Portfolio: single, Index: idx, Flat: flat}
		res, err := aggregate.Parallel{}.Run(ctx, in, aggregate.Config{Seed: s.cfg.Seed + 103, Sampling: true, Workers: s.cfg.Workers})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := metrics.Summarize(res.Portfolio)
		if err != nil {
			t.Fatal(err)
		}
		if sum.AAL != q.AAL || sum.TVaR99 != q.TVaR99 {
			t.Fatalf("%d trials: re-simulated portfolio does not match the quote (AAL %v vs %v)", trials, sum.AAL, q.AAL)
		}
		want, err := metrics.PML(res.Portfolio, 250)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(q.PML250) != math.Float64bits(want) {
			t.Errorf("%d trials: PML250 = %v, metrics.PML = %v", trials, q.PML250, want)
		}
	}
}
