package postevent

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/exposure"
	"repro/internal/financial"
)

func testDBs(t testing.TB, n int, seed uint64) []*exposure.Database {
	t.Helper()
	dbs := make([]*exposure.Database, n)
	for i := range dbs {
		cfg := exposure.DefaultConfig()
		cfg.NumLocations = 500
		db, err := exposure.Generate(cfg, seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return dbs
}

func eventNear(dbs []*exposure.Database) catalog.Event {
	// Drop the event on the first location so the footprint is
	// guaranteed to touch exposure.
	loc := dbs[0].Locations[0]
	return catalog.Event{
		ID: 77, Peril: catalog.Earthquake,
		Lat: loc.Lat, Lon: loc.Lon,
		Magnitude: 7.8, RadiusKm: 80, AnnualRate: 0.001,
	}
}

func TestEstimateBasics(t *testing.T) {
	dbs := testDBs(t, 2, 11)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sites() == 0 {
		t.Fatal("no sites indexed")
	}
	res, err := est.Estimate(context.Background(), eventNear(dbs))
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesTouched == 0 {
		t.Fatal("event on top of exposure touched no sites")
	}
	if res.GrossMean <= 0 || res.GroundUpMean <= 0 {
		t.Fatalf("expected positive losses: %+v", res)
	}
	if res.GrossMean > res.GroundUpMean+1e-9 {
		t.Fatal("gross cannot exceed ground-up")
	}
	if res.Low > res.GrossMean || res.High < res.GrossMean {
		t.Fatal("band must bracket the mean")
	}
	if res.Low < 0 {
		t.Fatal("band floor broken")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no timing")
	}
}

func TestIndexedMatchesFullScan(t *testing.T) {
	dbs := testDBs(t, 3, 13)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := eventNear(dbs)
	fast, err := est.Estimate(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := est.EstimateFullScan(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	fast.Elapsed, slow.Elapsed = 0, 0
	if *fast != *slow {
		t.Fatalf("indexed %+v vs full scan %+v", fast, slow)
	}
}

// The rule in Estimator's doc: over one database with default terms
// and hazard, an estimate carries the stage-1 record's mean loss and
// exposed value bit for bit, for every catalogue event. Every other
// event is moved onto a site, so each peril's reach cuts through the
// book.
func TestEstimateEqualsStage1Record(t *testing.T) {
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = 3000
	cat, err := catalog.Generate(ccfg, 37)
	if err != nil {
		t.Fatal(err)
	}
	dbs := testDBs(t, 1, 41)
	events := slices.Clone(cat.Events)
	for i := 0; i < len(events); i += 2 {
		loc := dbs[0].Locations[i%len(dbs[0].Locations)]
		events[i].Lat, events[i].Lon = loc.Lat, loc.Lon
	}
	cat = catalog.NewCatalog(events)
	tbl, err := catmodel.New().Run(context.Background(), cat, dbs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range cat.Events {
		res, err := est.Estimate(context.Background(), ev)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := tbl.Lookup(ev.ID)
		if !ok {
			if res.GrossMean != 0 {
				t.Fatalf("event %d: no stage-1 record, estimate %v", ev.ID, res.GrossMean)
			}
			continue
		}
		if math.Float64bits(res.GrossMean) != math.Float64bits(rec.MeanLoss) ||
			math.Float64bits(res.ExposedValue) != math.Float64bits(rec.ExposedValue) {
			t.Fatalf("event %d: estimate mean %v exposed %v, stage 1 %v and %v",
				ev.ID, res.GrossMean, res.ExposedValue, rec.MeanLoss, rec.ExposedValue)
		}
	}
	var byPeril [catalog.NumPerils]int
	for _, rec := range tbl.Records {
		ev, _ := cat.Lookup(rec.EventID)
		byPeril[ev.Peril]++
	}
	for p, n := range byPeril {
		if n == 0 {
			t.Fatalf("%v: no stage-1 records (%v)", catalog.Peril(p), byPeril)
		}
	}
}

func TestRemoteEventTouchesNothing(t *testing.T) {
	dbs := testDBs(t, 1, 17)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	far := catalog.Event{
		ID: 1, Peril: catalog.Hurricane,
		Lat: -44, Lon: 170, // the default regions are all in North America
		Magnitude: 55, RadiusKm: 150,
	}
	res, err := est.Estimate(context.Background(), far)
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesTouched != 0 || res.GrossMean != 0 {
		t.Fatalf("antipodal event produced losses: %+v", res)
	}
}

func TestSeverityMonotonicity(t *testing.T) {
	dbs := testDBs(t, 2, 19)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := eventNear(dbs)
	small := ev
	small.Magnitude = 5.5
	big := ev
	big.Magnitude = 8.4
	sres, err := est.Estimate(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := est.Estimate(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if bres.GrossMean <= sres.GrossMean {
		t.Fatalf("M8.4 loss %v should exceed M5.5 loss %v", bres.GrossMean, sres.GrossMean)
	}
}

func TestCustomTerms(t *testing.T) {
	dbs := testDBs(t, 1, 23)
	full, err := New(dbs, func(exposure.Interest) financial.Terms { return financial.Terms{} })
	if err != nil {
		t.Fatal(err)
	}
	half, err := New(dbs, func(exposure.Interest) financial.Terms { return financial.Terms{Share: 0.5} })
	if err != nil {
		t.Fatal(err)
	}
	ev := eventNear(dbs)
	fres, err := full.Estimate(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := half.Estimate(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hres.GrossMean-fres.GrossMean/2) > 1e-6*fres.GrossMean {
		t.Fatalf("50%% share: %v vs full %v", hres.GrossMean, fres.GrossMean)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("no databases should error")
	}
	if _, err := New([]*exposure.Database{{}}, nil); err == nil {
		t.Fatal("empty databases should error")
	}
	bad := oneSite(math.NaN(), 0)
	if _, err := New(bad, nil); err == nil {
		t.Fatal("NaN latitude should error")
	}
	est, err := New(oneSite(10, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := catalog.Event{Peril: catalog.Flood, Lat: 10, Lon: 10, Magnitude: 2, RadiusKm: math.NaN()}
	if _, err := est.Estimate(context.Background(), ev); err == nil {
		t.Fatal("NaN radius should error")
	}
}

// A magnitude that is not finite is an error for every peril, on the
// culled and the full-scan path alike.
func TestEstimateRejectsNonFiniteMagnitude(t *testing.T) {
	dbs := testDBs(t, 1, 43)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := catalog.Peril(0); int(p) < catalog.NumPerils; p++ {
		for _, mag := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ev := eventNear(dbs)
			ev.Peril, ev.Magnitude = p, mag
			if res, err := est.Estimate(context.Background(), ev); err == nil {
				t.Fatalf("%v magnitude %v accepted: %+v", p, mag, res)
			}
			if res, err := est.EstimateFullScan(context.Background(), ev); err == nil {
				t.Fatalf("%v magnitude %v accepted by the full scan: %+v", p, mag, res)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	dbs := testDBs(t, 2, 29)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.EstimateFullScan(ctx, eventNear(dbs)); err == nil {
		t.Fatal("cancelled estimate should error")
	}
}

func BenchmarkEstimateIndexed(b *testing.B) {
	dbs := testDBs(b, 8, 31)
	est, err := New(dbs, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev := eventNear(dbs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(context.Background(), ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateFullScan(b *testing.B) {
	dbs := testDBs(b, 8, 31)
	est, err := New(dbs, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev := eventNear(dbs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateFullScan(context.Background(), ev); err != nil {
			b.Fatal(err)
		}
	}
}

// oneSite is a book of a single residential wood interest.
func oneSite(lat, lon float64) []*exposure.Database {
	return []*exposure.Database{{
		Locations: []exposure.Location{{ID: 1, Lat: lat, Lon: lon}},
		Interests: []exposure.Interest{{Construction: exposure.Wood, Occupancy: exposure.Residential, Value: 5e6}},
	}}
}

// Sites just across the antimeridian or over the pole from an event
// are in its footprint; the estimate must find them as the full scan
// does.
func TestEdgeSitesMatchFullScan(t *testing.T) {
	cases := []struct {
		name     string
		lat, lon float64
		ev       catalog.Event
	}{
		{"antimeridian", 20, 179.9,
			catalog.Event{ID: 1, Peril: catalog.Hurricane, Lat: 20, Lon: -179.92, Magnitude: 70, RadiusKm: 60}},
		{"pole", 89.5, 0,
			catalog.Event{ID: 2, Peril: catalog.WinterStorm, Lat: 89.5, Lon: 179, Magnitude: 45, RadiusKm: 200}},
		{"antimeridian quake", 35, 179.95,
			catalog.Event{ID: 3, Peril: catalog.Earthquake, Lat: 35, Lon: -179.9, Magnitude: 7, RadiusKm: 60}},
		{"pole flood", 89.9, 90,
			catalog.Event{ID: 4, Peril: catalog.Flood, Lat: 89.9, Lon: -90, Magnitude: 2, RadiusKm: 30}},
		{"antimeridian tornado", -10, -179.999,
			catalog.Event{ID: 5, Peril: catalog.Tornado, Lat: -10, Lon: 179.999, Magnitude: 4, RadiusKm: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			est, err := New(oneSite(c.lat, c.lon), nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := est.EstimateFullScan(context.Background(), c.ev)
			if err != nil {
				t.Fatal(err)
			}
			if full.GrossMean <= 0 {
				t.Fatalf("full scan finds no loss: %+v", full)
			}
			fast, err := est.Estimate(context.Background(), c.ev)
			if err != nil {
				t.Fatal(err)
			}
			if fast.SitesTouched != full.SitesTouched || fast.GrossMean != full.GrossMean {
				t.Fatalf("estimate touched %d sites for %v, full scan %d for %v",
					fast.SitesTouched, fast.GrossMean, full.SitesTouched, full.GrossMean)
			}
		})
	}
}
