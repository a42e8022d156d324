// Package postevent implements rapid post-event loss estimation — the
// operational companion of stage 1 that the authors describe in
// "Rapid Post-Event Catastrophe Modelling and Visualisation" (paper
// reference [2]): when a real catastrophe strikes, the book must be
// re-priced against the observed footprint in seconds, not in the
// weekly batch cycle.
//
// The estimator builds the portfolio's stage-1 site table
// (catmodel.Sites) once; each incoming event then runs through the
// same chord-distance cull and loss sums as stage 1. A full-scan path
// without the cull exists as its reference and for benchmarking the
// cull's gain.
package postevent

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/exposure"
	"repro/internal/financial"
	"repro/internal/hazard"
	"repro/internal/mathx"
	"repro/internal/vulnerability"
)

// Estimator holds the prepared portfolio. Create once with New; safe
// for concurrent Estimate calls.
//
// For an estimator over one database with default terms and hazard
// model, Estimate(ev).GrossMean and .ExposedValue equal, bit for bit,
// the MeanLoss and ExposedValue of ev's record in the ELT that
// catmodel.New().Run computes for that database (and GrossMean is 0
// when that ELT has no record for ev).
type Estimator struct {
	Hazard hazard.Model
	Vuln   *vulnerability.Matrix

	sites *catmodel.Sites
}

// New prepares an estimator over the given exposure databases.
// termsFor selects policy terms per interest; nil applies standard
// terms by occupancy, as the stage-1 engine does.
func New(dbs []*exposure.Database, termsFor func(exposure.Interest) financial.Terms) (*Estimator, error) {
	if len(dbs) == 0 {
		return nil, errors.New("postevent: no exposure databases")
	}
	sites, err := catmodel.NewSites(termsFor, dbs...)
	if err != nil {
		return nil, err
	}
	if sites.Interests() == 0 {
		return nil, errors.New("postevent: databases contain no interests")
	}
	return &Estimator{Vuln: vulnerability.Default(), sites: sites}, nil
}

// Sites returns the number of indexed insured interests.
func (e *Estimator) Sites() int { return e.sites.Interests() }

// Estimate is a rapid loss estimate for one realized event.
type Estimate struct {
	EventID      uint32
	SitesTouched int
	ExposedValue float64 // insured value inside the footprint
	GroundUpMean float64
	GrossMean    float64
	GrossSD      float64
	// Low/High are a ±1.645σ (90%) band around the gross mean,
	// floored at zero.
	Low, High float64
	Elapsed   time.Duration
}

// Estimate evaluates the event against the sites its footprint can
// reach.
func (e *Estimator) Estimate(ctx context.Context, ev catalog.Event) (*Estimate, error) {
	return e.estimate(ctx, ev, e.sites.EventTotals)
}

// EstimateFullScan evaluates the event against every interest,
// bypassing the cull — the reference Estimate is measured against.
func (e *Estimator) EstimateFullScan(ctx context.Context, ev catalog.Event) (*Estimate, error) {
	return e.estimate(ctx, ev, e.sites.EventTotalsFullScan)
}

type totalsFunc func(catalog.Event, hazard.Model, *vulnerability.Matrix, float64) catmodel.Totals

func (e *Estimator) estimate(ctx context.Context, ev catalog.Event, totals totalsFunc) (*Estimate, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := catmodel.CheckEvent(ev); err != nil {
		return nil, err
	}
	vuln := e.Vuln
	if vuln == nil {
		vuln = vulnerability.Default()
	}
	// Sites are independent here: no correlated variance share.
	t := totals(ev, e.Hazard, vuln, 0)
	sd := math.Sqrt(t.VarI)
	z := 1.6448536269514722 // Φ⁻¹(0.95)
	return &Estimate{
		EventID:      ev.ID,
		SitesTouched: t.Interests,
		ExposedValue: t.Exposed,
		GroundUpMean: t.GroundUp,
		GrossMean:    t.Mean,
		GrossSD:      sd,
		Low:          mathx.Clamp(t.Mean-z*sd, 0, math.Inf(1)),
		High:         t.Mean + z*sd,
		Elapsed:      time.Since(start),
	}, nil
}
