package catmodel

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exposure"
)

func benchWorld(b *testing.B, nEvents, nLocs int) (*catalog.Catalog, *exposure.Database) {
	b.Helper()
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = nEvents
	cat, err := catalog.Generate(ccfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	ecfg := exposure.DefaultConfig()
	ecfg.NumLocations = nLocs
	db, err := exposure.Generate(ecfg, 8)
	if err != nil {
		b.Fatal(err)
	}
	return cat, db
}

func BenchmarkRunEventExposurePairs(b *testing.B) {
	cat, db := benchWorld(b, 5_000, 300)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := New()
			eng.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cat, db, 1); err != nil {
					b.Fatal(err)
				}
			}
			pairs := float64(cat.Len()) * float64(len(db.Interests))
			b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

func BenchmarkRunScalesWithEvents(b *testing.B) {
	for _, events := range []int{1_000, 10_000} {
		cat, db := benchWorld(b, events, 200)
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			eng := New()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cat, db, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunPortfolioDefaultBook is stage 1 of riskpipeline's
// default run on one worker: 10k events against 16 contracts of 300
// locations each, seed 1, with the exposure seeds core uses.
func BenchmarkRunPortfolioDefaultBook(b *testing.B) {
	const seed = 1
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = 10_000
	cat, err := catalog.Generate(ccfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	dbs := make([]*exposure.Database, 16)
	for c := range dbs {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = 300
		if dbs[c], err = exposure.Generate(ecfg, seed+uint64(1000+c)); err != nil {
			b.Fatal(err)
		}
	}
	eng := New()
	eng.Workers = 1
	for b.Loop() {
		if _, err := eng.RunPortfolio(context.Background(), cat, dbs); err != nil {
			b.Fatal(err)
		}
	}
}
