package catmodel

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exposure"
	"repro/internal/financial"
)

func smallWorld(t *testing.T, nEvents, nLocs int, seed uint64) (*catalog.Catalog, *exposure.Database) {
	t.Helper()
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = nEvents
	cat, err := catalog.Generate(ccfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := exposure.DefaultConfig()
	ecfg.NumLocations = nLocs
	db, err := exposure.Generate(ecfg, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return cat, db
}

func TestRunProducesSortedELT(t *testing.T) {
	cat, db := smallWorld(t, 2000, 300, 5)
	eng := New()
	tbl, err := eng.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() == 0 {
		t.Fatal("expected some events to produce losses")
	}
	for i := 1; i < tbl.Len(); i++ {
		if tbl.Records[i-1].EventID >= tbl.Records[i].EventID {
			t.Fatal("ELT not sorted by event ID")
		}
	}
	for _, r := range tbl.Records {
		if r.MeanLoss <= 0 {
			t.Fatalf("non-positive mean loss in ELT: %+v", r)
		}
		if r.SigmaI < 0 || r.SigmaC < 0 {
			t.Fatalf("negative sigma: %+v", r)
		}
		if r.MeanLoss > r.ExposedValue+1e-6 {
			t.Fatalf("mean loss exceeds exposed value: %+v", r)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// The MapReduce shape must make parallelism invisible: identical
	// ELTs regardless of worker count.
	cat, db := smallWorld(t, 1500, 200, 8)
	eng1 := New()
	eng1.Workers = 1
	eng8 := New()
	eng8.Workers = 8
	t1, err := eng1.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := eng8.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Len() != t8.Len() {
		t.Fatalf("lengths differ: %d vs %d", t1.Len(), t8.Len())
	}
	for i := range t1.Records {
		a, b := t1.Records[i], t8.Records[i]
		if a.EventID != b.EventID ||
			math.Abs(a.MeanLoss-b.MeanLoss) > 1e-9*(1+a.MeanLoss) ||
			math.Abs(a.SigmaI-b.SigmaI) > 1e-9*(1+a.SigmaI) {
			t.Fatalf("record %d differs across worker counts: %+v vs %+v", i, a, b)
		}
	}
}

func TestRunEmptyCatalog(t *testing.T) {
	_, db := smallWorld(t, 10, 50, 2)
	eng := New()
	tbl, err := eng.Run(context.Background(), catalog.NewCatalog(nil), db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 || tbl.ContractID != 3 {
		t.Fatalf("empty catalogue should yield empty ELT, got %d records", tbl.Len())
	}
}

func TestRunNilVulnerability(t *testing.T) {
	cat, db := smallWorld(t, 10, 10, 2)
	eng := &Engine{}
	if _, err := eng.Run(context.Background(), cat, db, 1); err == nil {
		t.Fatal("nil vulnerability matrix should error")
	}
}

func TestRunRespectsCancellation(t *testing.T) {
	cat, db := smallWorld(t, 5000, 500, 4)
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, cat, db, 1); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
}

func TestMinMeanLossTruncates(t *testing.T) {
	cat, db := smallWorld(t, 2000, 200, 6)
	full := New()
	fullT, err := full.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	trunc := New()
	trunc.MinMeanLoss = 50_000
	truncT, err := trunc.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if truncT.Len() >= fullT.Len() {
		t.Fatalf("truncation did not shrink the table: %d vs %d", truncT.Len(), fullT.Len())
	}
	for _, r := range truncT.Records {
		if r.MeanLoss < 50_000 {
			t.Fatalf("record below floor: %+v", r)
		}
	}
}

func TestCustomTermsReduceLoss(t *testing.T) {
	cat, db := smallWorld(t, 1000, 150, 9)
	free := New()
	free.TermsFor = func(exposure.Interest) financial.Terms { return financial.Terms{} }
	freeT, err := free.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	harsh := New()
	harsh.TermsFor = func(in exposure.Interest) financial.Terms {
		return financial.Terms{Deductible: 0.5 * in.Value, Share: 0.5}
	}
	harshT, err := harsh.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if harshT.ExpectedLoss() >= freeT.ExpectedLoss() {
		t.Fatalf("harsher terms should cut expected loss: %v vs %v",
			harshT.ExpectedLoss(), freeT.ExpectedLoss())
	}
}

func TestRunPortfolioAssignsContractIDs(t *testing.T) {
	cat, _ := smallWorld(t, 500, 10, 12)
	dbs := make([]*exposure.Database, 3)
	for i := range dbs {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = 50
		db, err := exposure.Generate(ecfg, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	eng := New()
	tables, err := eng.RunPortfolio(context.Background(), cat, dbs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables", len(tables))
	}
	for i, tbl := range tables {
		if tbl.ContractID != uint32(i+1) {
			t.Fatalf("table %d has contract ID %d", i, tbl.ContractID)
		}
	}
}

func TestCorrelatedShareSplitsVariance(t *testing.T) {
	cat, db := smallWorld(t, 1000, 150, 14)
	lo := New()
	lo.CorrelatedShare = 0.05
	hi := New()
	hi.CorrelatedShare = 0.95
	loT, err := lo.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	hiT, err := hi.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	var loC, hiC float64
	for _, r := range loT.Records {
		loC += r.SigmaC
	}
	for _, r := range hiT.Records {
		hiC += r.SigmaC
	}
	if hiC <= loC {
		t.Fatalf("higher correlated share should raise SigmaC: %v vs %v", hiC, loC)
	}
}

// Malformed coordinates, values or radii must fail the run instead of
// yielding NaN records.
// A magnitude that is not finite is an error for every peril. Before
// CheckEvent rejected it, a NaN magnitude on top of exposure produced
// a record whose mean loss and sigmas were NaN, with no error.
func TestRunRejectsNonFiniteMagnitude(t *testing.T) {
	_, db := smallWorld(t, 1, 20, 3)
	loc := db.Locations[0]
	for p := catalog.Peril(0); int(p) < catalog.NumPerils; p++ {
		for _, mag := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ev := catalog.Event{ID: 1, Peril: p, Lat: loc.Lat, Lon: loc.Lon, Magnitude: mag, RadiusKm: 50}
			tbl, err := New().Run(context.Background(), catalog.NewCatalog([]catalog.Event{ev}), db, 1)
			if err == nil {
				t.Fatalf("%v magnitude %v accepted: %+v", p, mag, tbl.Records)
			}
		}
	}
}

func TestRunRejectsMalformedInput(t *testing.T) {
	cat, db := smallWorld(t, 50, 20, 3)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		loc  func(*exposure.Location)
		in   func(*exposure.Interest)
		ev   func(*catalog.Event)
	}{
		{name: "location NaN lat", loc: func(l *exposure.Location) { l.Lat = nan }},
		{name: "location lat above 90", loc: func(l *exposure.Location) { l.Lat = 90.5 }},
		{name: "location lat below -90", loc: func(l *exposure.Location) { l.Lat = -91 }},
		{name: "location infinite lon", loc: func(l *exposure.Location) { l.Lon = -inf }},
		{name: "interest NaN value", in: func(in *exposure.Interest) { in.Value = nan }},
		{name: "interest infinite value", in: func(in *exposure.Interest) { in.Value = inf }},
		{name: "event NaN lat", ev: func(e *catalog.Event) { e.Lat = nan }},
		{name: "event infinite lon", ev: func(e *catalog.Event) { e.Lon = inf }},
		{name: "event NaN radius", ev: func(e *catalog.Event) { e.RadiusKm = nan }},
		{name: "event negative radius", ev: func(e *catalog.Event) { e.RadiusKm = -1 }},
		{name: "event infinite radius", ev: func(e *catalog.Event) { e.RadiusKm = inf }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &exposure.Database{
				Locations: slices.Clone(db.Locations),
				Interests: slices.Clone(db.Interests),
			}
			events := slices.Clone(cat.Events)
			if c.loc != nil {
				c.loc(&d.Locations[d.Interests[len(d.Interests)-1].LocationIndex])
			}
			if c.in != nil {
				c.in(&d.Interests[len(d.Interests)/2])
			}
			if c.ev != nil {
				c.ev(&events[len(events)-1])
			}
			if tbl, err := New().Run(context.Background(), catalog.NewCatalog(events), d, 1); err == nil {
				t.Fatalf("malformed input accepted (%d records)", tbl.Len())
			}
		})
	}
}
