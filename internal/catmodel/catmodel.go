// Package catmodel is the stage-1 engine: it drives event–exposure
// pairs through the hazard, vulnerability and financial modules and
// aggregates the results into Event-Loss Tables.
//
// The paper's stage-1 data challenge (§II) is that risk modelling is
// "highly compute and data intensive. Typically, data needs to be
// organised in a small number of very large tables and streamed by
// independent processes, further to which the results need to be
// aggregated." The engine therefore streams the event table once,
// partitioned across independent workers, each accumulating a partial
// ELT that is merged at the end — no random access, no shared state on
// the hot path.
package catmodel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/financial"
	"repro/internal/hazard"
	"repro/internal/stream"
	"repro/internal/vulnerability"
)

// Engine wires the three catastrophe-model modules together.
type Engine struct {
	Hazard        hazard.Model
	Vulnerability *vulnerability.Matrix
	// Workers is the parallelism for the event stream; <= 0 means
	// GOMAXPROCS. The paper notes stage 1 typically needs fewer than
	// ten processors — the default matches a small multicore host.
	Workers int
	// TermsFor selects policy terms per interest; nil applies
	// standard terms by occupancy.
	TermsFor func(exposure.Interest) financial.Terms
	// MinMeanLoss truncates ELT records below this expected loss.
	MinMeanLoss float64
	// CorrelatedShare is the fraction of damage variance attributed to
	// the systemic (correlated) component; the rest is per-site
	// independent. Defaults to 0.3.
	CorrelatedShare float64
}

// New returns an engine with the default hazard model and
// vulnerability matrix.
func New() *Engine {
	return &Engine{
		Vulnerability:   vulnerability.Default(),
		CorrelatedShare: 0.3,
	}
}

// Run computes the ELT for one contract: the given exposure database
// analysed against the full event catalogue. It is deterministic (the
// moment pipeline is closed-form; no sampling happens in stage 1), and
// each record equals, bit for bit, a scan of every (event, interest)
// pair in interest order: the site table only skips sites the hazard
// model gives intensity 0. Malformed coordinates, values or radii are
// an error.
func (e *Engine) Run(ctx context.Context, cat *catalog.Catalog, db *exposure.Database, contractID uint32) (*elt.Table, error) {
	if e.Vulnerability == nil {
		return nil, fmt.Errorf("catmodel: nil vulnerability matrix")
	}
	sites, err := NewSites(e.TermsFor, db)
	if err != nil {
		return nil, err
	}
	for _, ev := range cat.Events {
		if err := CheckEvent(ev); err != nil {
			return nil, err
		}
	}
	if cat.Len() == 0 {
		return elt.New(contractID, nil), nil
	}
	corr := e.CorrelatedShare
	if corr <= 0 || corr > 1 {
		corr = 0.3
	}

	type partial struct{ recs []elt.Record }
	result, err := stream.MapReduceLocal(ctx, cat.Len(), e.Workers,
		func() *partial { return &partial{} },
		func(ctx context.Context, r stream.Range, acc *partial) error {
			for evIdx := r.Lo; evIdx < r.Hi; evIdx++ {
				if evIdx%256 == 0 {
					select {
					case <-ctx.Done():
						return ctx.Err()
					default:
					}
				}
				ev := cat.Events[evIdx]
				t := sites.EventTotals(ev, e.Hazard, e.Vulnerability, corr)
				if t.Mean < e.MinMeanLoss || t.Mean <= 0 {
					continue
				}
				acc.recs = append(acc.recs, elt.Record{
					EventID:      ev.ID,
					MeanLoss:     t.Mean,
					SigmaI:       math.Sqrt(t.VarI),
					SigmaC:       t.SigmaC,
					ExposedValue: t.Exposed,
				})
			}
			return nil
		},
		func(into, from *partial) { into.recs = append(into.recs, from.recs...) },
	)
	if err != nil {
		return nil, err
	}
	return elt.New(contractID, result.recs), nil
}

// RunPortfolio computes ELTs for many contracts, one exposure database
// each, reusing the engine across contracts. Contracts are processed
// sequentially while events parallelize inside each contract: the ELT
// of a contract is the unit of output in stage 1 (one "very large
// table" per run), and this preserves deterministic output order.
func (e *Engine) RunPortfolio(ctx context.Context, cat *catalog.Catalog, dbs []*exposure.Database) ([]*elt.Table, error) {
	out := make([]*elt.Table, len(dbs))
	for i, db := range dbs {
		t, err := e.Run(ctx, cat, db, uint32(i+1))
		if err != nil {
			return nil, fmt.Errorf("catmodel: contract %d: %w", i+1, err)
		}
		out[i] = t
	}
	return out, nil
}
