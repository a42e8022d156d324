// Package dfa implements stage 3, Dynamic Financial Analysis: "The
// aggregate YLTs of catastrophe risks are integrated with investment,
// reserving, interest rate, market cycle, counter-party, and
// operational risks in the simulation" (§II). The integrator runs one
// enterprise trial per pre-simulated year, couples the risk sources
// through a Gaussian copula (conditioning on the catastrophe year's
// severity rank so financial stress co-moves with cat years), and
// emits per-source and enterprise Year-Loss Tables from which PML and
// TVaR flow to enterprise risk management.
package dfa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// Source is one non-catastrophe risk model. Implementations must be
// pure functions of their arguments: u is the copula-correlated
// uniform in (0,1) driving the source's systematic severity, aux is a
// per-(trial, source) stream for idiosyncratic draws.
//
// Severity convention: higher u must mean a worse outcome (larger
// loss) for the enterprise. The integrator pins u's dependence to the
// catastrophe year's severity rank, so a source violating this
// convention would hedge cat years instead of compounding them.
type Source interface {
	// Name labels the source's YLT.
	Name() string
	// Loss returns the annual loss for one trial. Negative losses are
	// gains (e.g. investment income).
	Loss(u float64, aux *rng.Stream) float64
}

// --- concrete sources ---

// Investment models asset-portfolio return risk: a normal annual
// return on invested assets; loss is the negative return.
type Investment struct {
	Assets     float64
	MeanReturn float64 // e.g. 0.05
	Volatility float64 // e.g. 0.12
}

// Name implements Source.
func (s Investment) Name() string { return "investment" }

// Loss implements Source.
func (s Investment) Loss(u float64, _ *rng.Stream) float64 {
	// High severity u = poor markets = low return (severity convention).
	ret := s.MeanReturn - s.Volatility*mathx.StdNormalQuantile(u)
	return -s.Assets * ret
}

// InterestRate models mark-to-market loss on a bond book from a
// parallel yield-curve shift: loss = notional · duration · Δr.
type InterestRate struct {
	Notional  float64
	Duration  float64 // modified duration, years
	MeanShift float64 // expected annual rate drift
	Vol       float64 // annual rate volatility, e.g. 0.01
}

// Name implements Source.
func (s InterestRate) Name() string { return "interest-rate" }

// Loss implements Source.
func (s InterestRate) Loss(u float64, _ *rng.Stream) float64 {
	shift := s.MeanShift + s.Vol*mathx.StdNormalQuantile(u)
	return s.Notional * s.Duration * shift
}

// Reserve models adverse development of held loss reserves as a
// mean-one lognormal deviation: loss = reserves · (X − 1).
type Reserve struct {
	Reserves float64
	CoV      float64 // coefficient of variation of development
}

// Name implements Source.
func (s Reserve) Name() string { return "reserve" }

// Loss implements Source.
func (s Reserve) Loss(u float64, _ *rng.Stream) float64 {
	mu, sigma := mathx.LogNormalMeanStd(1, s.CoV)
	x := mathx.StdNormalQuantile(u)*sigma + mu
	// exp(x) - 1 via Expm1 to avoid cancellation for mild developments.
	return s.Reserves * math.Expm1(x)
}

// Counterparty models default of reinsurance counterparties holding
// recoverables, using the Vasicek one-factor portfolio model: the
// copula normal is the systematic factor that stresses every
// counterparty's conditional default probability; defaults themselves
// are idiosyncratic binomial draws.
type Counterparty struct {
	Recoverables float64 // total ceded recoverables at risk
	N            int     // number of counterparties
	PD           float64 // unconditional annual default probability
	LGD          float64 // loss given default, (0, 1]
	FactorRho    float64 // asset correlation to the systematic factor
}

// Name implements Source.
func (s Counterparty) Name() string { return "counterparty" }

// Loss implements Source.
func (s Counterparty) Loss(u float64, aux *rng.Stream) float64 {
	if s.N <= 0 || s.PD <= 0 {
		return 0
	}
	z := mathx.StdNormalQuantile(u)
	rho := mathx.Clamp(s.FactorRho, 0, 0.97)
	// Vasicek conditional PD given systematic factor z (stress when z
	// is large: cat-heavy years impair reinsurers).
	pdCond := mathx.StdNormalCDF((mathx.StdNormalQuantile(s.PD) + math.Sqrt(rho)*z) / math.Sqrt(1-rho))
	defaults := aux.Binomial(s.N, pdCond)
	return s.Recoverables * float64(defaults) / float64(s.N) * s.LGD
}

// Operational models operational-loss risk as a compound Poisson with
// lognormal severities, scaled by a mild systematic stress factor.
type Operational struct {
	Freq       float64 // expected loss events per year
	SevMean    float64 // mean severity
	SevCoV     float64
	StressBeta float64 // exposure of severity to the systematic factor
}

// Name implements Source.
func (s Operational) Name() string { return "operational" }

// Loss implements Source.
func (s Operational) Loss(u float64, aux *rng.Stream) float64 {
	n := aux.Poisson(s.Freq)
	if n == 0 {
		return 0
	}
	mu, sigma := mathx.LogNormalMeanStd(s.SevMean, s.SevMean*s.SevCoV)
	var sum float64
	for i := 0; i < n; i++ {
		sum += aux.LogNormal(mu, sigma)
	}
	z := mathx.StdNormalQuantile(u)
	beta := s.StressBeta
	stress := math.Exp(beta*z - beta*beta/2)
	return sum * stress
}

// MarketCycle models the underwriting cycle: soft markets erode
// premium adequacy (a loss relative to plan), hard markets add margin.
type MarketCycle struct {
	Premium    float64
	SoftProb   float64 // probability of a soft-market year
	HardProb   float64
	SoftMargin float64 // e.g. 0.08: 8% of premium lost vs plan
	HardMargin float64 // e.g. 0.06: 6% gained
}

// Name implements Source.
func (s MarketCycle) Name() string { return "market-cycle" }

// Loss implements Source.
func (s MarketCycle) Loss(u float64, _ *rng.Stream) float64 {
	switch {
	case u > 1-s.SoftProb:
		// High severity = soft market = inadequate premium.
		return s.Premium * s.SoftMargin
	case u < s.HardProb:
		return -s.Premium * s.HardMargin
	default:
		return 0
	}
}

// StandardSources returns the paper's six-risk integration set, sized
// relative to the catastrophe book's average annual loss so that the
// enterprise distribution has realistic proportions.
func StandardSources(catAAL float64) []Source {
	scale := catAAL
	if scale <= 0 {
		scale = 1
	}
	return []Source{
		Investment{Assets: 20 * scale, MeanReturn: 0.05, Volatility: 0.10},
		InterestRate{Notional: 15 * scale, Duration: 4.5, MeanShift: 0, Vol: 0.008},
		Reserve{Reserves: 8 * scale, CoV: 0.10},
		MarketCycle{Premium: 3 * scale, SoftProb: 0.3, HardProb: 0.25, SoftMargin: 0.08, HardMargin: 0.06},
		Counterparty{Recoverables: 2 * scale, N: 40, PD: 0.01, LGD: 0.55, FactorRho: 0.25},
		Operational{Freq: 1.5, SevMean: 0.05 * scale, SevCoV: 1.5, StressBeta: 0.25},
	}
}

// Config controls an integration run.
type Config struct {
	Seed    uint64
	Workers int
	// Rho is the equicorrelation among all risk coordinates (the cat
	// book is coordinate 0). Ignored when Corr is set.
	Rho float64
	// Corr optionally supplies the full (1+len(Sources))² correlation
	// matrix.
	Corr *mathx.Matrix
}

// Result is the output of an integration.
type Result struct {
	// Cat is the input catastrophe YLT (coordinate 0).
	Cat *ylt.Table
	// PerSource holds one YLT per non-cat source, in input order.
	PerSource []*ylt.Table
	// Enterprise is the per-trial sum of cat and all sources.
	Enterprise *ylt.Table
	// TotalBytes is the summed serialized size of every YLT involved —
	// the stage-3 data-volume accounting for experiment E9.
	TotalBytes int64
}

// Integrator couples a catastrophe YLT with parametric risk sources.
type Integrator struct {
	Sources []Source
}

// rankOrder returns the trials in ascending order of loss, ties broken
// by trial index. On finite losses (which Run requires) `<` is a strict
// weak order, so this is exactly the permutation a stable sort by loss
// gives; sorting (loss, trial) pairs avoids the stable sort's
// reflection and indirect loads.
func rankOrder(losses []float64) []int {
	type pair struct {
		loss  float64
		trial int
	}
	ps := make([]pair, len(losses))
	for i, l := range losses {
		ps[i] = pair{l, i}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		switch {
		case a.loss < b.loss:
			return -1
		case b.loss < a.loss:
			return 1
		}
		return a.trial - b.trial
	})
	order := make([]int, len(ps))
	for rank, p := range ps {
		order[rank] = p.trial
	}
	return order
}

// Run executes the integration over the cat table's trials. Every
// catastrophe loss must be finite.
func (ig *Integrator) Run(ctx context.Context, cat *ylt.Table, cfg Config) (*Result, error) {
	if cat == nil || cat.NumTrials() == 0 {
		return nil, errors.New("dfa: missing catastrophe YLT")
	}
	if len(ig.Sources) == 0 {
		return nil, errors.New("dfa: no sources to integrate")
	}
	if i := mathx.FirstNonFinite(cat.Agg); i >= 0 {
		return nil, fmt.Errorf("dfa: catastrophe loss of trial %d is %g", i, cat.Agg[i])
	}
	if i := mathx.FirstNonFinite(cat.OccMax); i >= 0 {
		return nil, fmt.Errorf("dfa: catastrophe occurrence loss of trial %d is %g", i, cat.OccMax[i])
	}
	k := len(ig.Sources) + 1 // coordinate 0 is the cat book

	corr := cfg.Corr
	if corr == nil {
		rho := cfg.Rho
		var err error
		corr, err = mathx.CorrelationMatrix(k, rho)
		if err != nil {
			return nil, fmt.Errorf("dfa: correlation: %w", err)
		}
	}
	if corr.N != k {
		return nil, fmt.Errorf("dfa: correlation matrix is %d×%d, need %d", corr.N, corr.N, k)
	}
	chol, jitter, err := mathx.CholeskyJittered(corr, 12)
	if err != nil {
		return nil, fmt.Errorf("dfa: correlation not factorizable (jitter reached %g): %w", jitter, err)
	}

	n := cat.NumTrials()

	// Rank-transform the cat losses into standard normals: the copula
	// conditions every financial source on how bad the catastrophe
	// year was. Ties (e.g. many zero-loss years) share the rank range
	// deterministically by trial order.
	zCat := make([]float64, n)
	for rank, trial := range rankOrder(cat.Agg) {
		zCat[trial] = mathx.StdNormalQuantile((float64(rank) + 0.5) / float64(n))
	}

	res := &Result{Cat: cat, PerSource: make([]*ylt.Table, len(ig.Sources))}
	for i, s := range ig.Sources {
		res.PerSource[i] = ylt.NewAggOnly(s.Name(), n)
	}
	var enterprise *ylt.Table
	if cat.HasOccurrence() {
		enterprise = ylt.New("enterprise", n)
	} else {
		enterprise = ylt.NewAggOnly("enterprise", n)
	}
	res.Enterprise = enterprise

	err = stream.ForEachRange(ctx, n, cfg.Workers, func(ctx context.Context, r stream.Range, _ int) error {
		w := make([]float64, k)
		z := make([]float64, k)
		for trial := r.Lo; trial < r.Hi; trial++ {
			if trial%4096 == 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
			st := rng.NewStream(cfg.Seed, uint64(trial))
			// Conditional Gaussian copula: coordinate 0 is pinned to
			// the cat year's z-score (L[0][0] == 1 for a correlation
			// matrix, so w[0] = z[0]).
			w[0] = zCat[trial]
			for i := 1; i < k; i++ {
				w[i] = st.StdNormal()
			}
			chol.LowerMulVec(w, z)
			total := cat.Agg[trial]
			for i, s := range ig.Sources {
				u := mathx.StdNormalCDF(z[i+1])
				loss := s.Loss(u, st)
				res.PerSource[i].Agg[trial] = loss
				total += loss
			}
			enterprise.Agg[trial] = total
			if enterprise.OccMax != nil {
				enterprise.OccMax[trial] = cat.OccMax[trial]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.TotalBytes = cat.SizeBytes() + enterprise.SizeBytes()
	for _, t := range res.PerSource {
		res.TotalBytes += t.SizeBytes()
	}
	return res, nil
}
