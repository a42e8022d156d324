package catmodel

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/hazard"
	"repro/internal/rng"
)

// fullScanRun is the reference stage 1: every (event, interest) pair
// through the hazard model, in interest order, with no site table.
func fullScanRun(e *Engine, cat *catalog.Catalog, db *exposure.Database, contractID uint32) *elt.Table {
	corr := e.CorrelatedShare
	if corr <= 0 || corr > 1 {
		corr = 0.3
	}
	terms := e.TermsFor
	if terms == nil {
		terms = defaultTerms
	}
	var recs []elt.Record
	for _, ev := range cat.Events {
		var meanSum, varISum, sigmaCSum, exposed float64
		for _, in := range db.Interests {
			loc := db.Locations[in.LocationIndex]
			inten := e.Hazard.IntensityAt(ev, loc.Lat, loc.Lon)
			if inten <= 0 {
				continue
			}
			mdr, sd := e.Vulnerability.DamageMoments(ev.Peril, in.Construction, inten)
			if mdr <= 0 {
				continue
			}
			gMean, gSD := terms(in).ApplyMoments(mdr*in.Value, sd*in.Value)
			if gMean <= 0 && gSD <= 0 {
				continue
			}
			meanSum += gMean
			varISum += (1 - corr) * gSD * gSD
			sigmaCSum += math.Sqrt(corr) * gSD
			exposed += in.Value
		}
		if meanSum < e.MinMeanLoss || meanSum <= 0 {
			continue
		}
		recs = append(recs, elt.Record{
			EventID: ev.ID, MeanLoss: meanSum, SigmaI: math.Sqrt(varISum),
			SigmaC: sigmaCSum, ExposedValue: exposed,
		})
	}
	return elt.New(contractID, recs)
}

// requireOracle fails unless Run's ELT equals the full scan's bit for
// bit, and returns it.
func requireOracle(t *testing.T, cat *catalog.Catalog, db *exposure.Database) *elt.Table {
	t.Helper()
	eng := New()
	eng.Workers = 2
	got, err := eng.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := fullScanRun(eng, cat, db, 1)
	if got.Len() != want.Len() {
		t.Fatalf("Run has %d records, full scan %d", got.Len(), want.Len())
	}
	for i, w := range want.Records {
		g := got.Records[i]
		if g.EventID != w.EventID ||
			math.Float64bits(g.MeanLoss) != math.Float64bits(w.MeanLoss) ||
			math.Float64bits(g.SigmaI) != math.Float64bits(w.SigmaI) ||
			math.Float64bits(g.SigmaC) != math.Float64bits(w.SigmaC) ||
			math.Float64bits(g.ExposedValue) != math.Float64bits(w.ExposedValue) {
			t.Fatalf("record %d: Run %+v, full scan %+v", i, g, w)
		}
	}
	return want
}

// recordsByPeril counts tbl's records by their event's peril.
func recordsByPeril(cat *catalog.Catalog, tbl *elt.Table) [catalog.NumPerils]int {
	var n [catalog.NumPerils]int
	for _, rec := range tbl.Records {
		ev, _ := cat.Lookup(rec.EventID)
		n[ev.Peril]++
	}
	return n
}

// The first two contracts of the default book (core's defaults: seed
// 1, 10k events, 300 locations per contract).
func TestRunMatchesFullScanDefaultBook(t *testing.T) {
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = 10_000
	cat, err := catalog.Generate(ccfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = 300
		db, err := exposure.Generate(ecfg, 1+uint64(1000+c))
		if err != nil {
			t.Fatal(err)
		}
		sites, err := NewSites(nil, db)
		if err != nil {
			t.Fatal(err)
		}
		if len(sites.pos) != len(db.Locations) || sites.Interests() != len(db.Interests) {
			t.Fatalf("%d sites and %d interests from %d locations and %d interests",
				len(sites.pos), sites.Interests(), len(db.Locations), len(db.Interests))
		}
		byPeril := recordsByPeril(cat, requireOracle(t, cat, db))
		for p, n := range byPeril {
			if n == 0 {
				t.Fatalf("contract %d: no %v records (%v)", c+1, catalog.Peril(p), byPeril)
			}
		}
	}
}

// edgeBook clusters sites and events across the antimeridian and
// around both poles, with exact ±90° latitudes, ±180° longitudes and
// zero-radius events among them.
func edgeBook(t *testing.T) (*catalog.Catalog, *exposure.Database) {
	t.Helper()
	st := rng.NewStream(42, 0)
	place := func(k int) (lat, lon float64) {
		switch k % 4 {
		case 0: // antimeridian band
			lat = -60 + 120*st.Float64()
			lon = 178 + 4*st.Float64()
			if lon > 180 {
				lon -= 360
			}
		case 1: // north cap
			lat, lon = 86+4*st.Float64(), -180+360*st.Float64()
		case 2: // south cap
			lat, lon = -90+4*st.Float64(), -180+360*st.Float64()
		default: // exact pole or exact antimeridian
			lat, lon = 90, -180+360*st.Float64()
			if st.Float64() < 0.5 {
				lat = -90
			}
			if st.Float64() < 0.3 {
				lat, lon = -30+60*st.Float64(), 180
				if st.Float64() < 0.5 {
					lon = -180
				}
			}
		}
		return lat, lon
	}
	db := &exposure.Database{}
	for i := 0; i < 400; i++ {
		lat, lon := place(i)
		db.Locations = append(db.Locations, exposure.Location{ID: uint32(i + 1), Lat: lat, Lon: lon})
		for k := 1 + st.Intn(3); k > 0; k-- {
			db.Interests = append(db.Interests, exposure.Interest{
				LocationIndex: i,
				Construction:  exposure.Construction(st.Intn(exposure.NumConstruction)),
				Occupancy:     exposure.Occupancy(st.Intn(exposure.NumOccupancy)),
				Value:         1e5 + 1e7*st.Float64(),
			})
		}
	}
	var events []catalog.Event
	for i := 0; i < 2000; i++ {
		lat, lon := place(i)
		ev := catalog.Event{
			ID: uint32(i + 1), Peril: catalog.Peril(i % 5), Lat: lat, Lon: lon,
			RadiusKm: 300 * st.Float64(),
		}
		switch ev.Peril {
		case catalog.Earthquake:
			ev.Magnitude = 6 + 2*st.Float64()
		case catalog.Hurricane, catalog.WinterStorm:
			ev.Magnitude = 40 + 40*st.Float64()
		case catalog.Flood:
			ev.Magnitude = 1 + 3*st.Float64()
		default:
			ev.Magnitude = 2 + 3*st.Float64()
		}
		if i%50 == 0 {
			ev.RadiusKm = 0
		}
		if i%7 == 0 { // on top of a site
			loc := db.Locations[st.Intn(len(db.Locations))]
			ev.Lat, ev.Lon = loc.Lat, loc.Lon
		}
		events = append(events, ev)
	}
	return catalog.NewCatalog(events), db
}

func TestRunMatchesFullScanEdgeBook(t *testing.T) {
	cat, db := edgeBook(t)
	if n := requireOracle(t, cat, db).Len(); n < 100 {
		t.Fatalf("edge book produced only %d records", n)
	}
}

// reachBook drops events of every peril on the default book's sites
// with reaches at, just inside and just outside the distance to
// another site, plus events whose reach is 0 (R = 0, tornado M ≤ 1/11,
// small earthquakes), below R/2 (hurricane and winter storm below
// their damage thresholds) or beyond the cutoff.
func reachBook(t *testing.T) (*catalog.Catalog, *exposure.Database) {
	t.Helper()
	_, db := smallWorld(t, 1, 300, 31)
	st := rng.NewStream(17, 0)
	var events []catalog.Event
	for i := 0; i < 3000; i++ {
		p := catalog.Peril(i % catalog.NumPerils)
		a := db.Locations[st.Intn(len(db.Locations))]
		b := db.Locations[st.Intn(len(db.Locations))]
		d := hazard.DistanceKm(a.Lat, a.Lon, b.Lat, b.Lon)
		r := d * (1 + []float64{0, 1e-15, 1e-12, 1e-6, 0.3}[st.Intn(5)]*(2*st.Float64()-1))
		ev := reachEvent(st, p, a.Lat, a.Lon, r)
		ev.ID = uint32(i + 1)
		switch i / catalog.NumPerils % 10 {
		case 0:
			ev.RadiusKm = 0
		case 1: // no reach at all
			ev.Magnitude = map[catalog.Peril]float64{
				catalog.Earthquake: 2 * st.Float64(), catalog.Hurricane: 20 * st.Float64(),
				catalog.WinterStorm: 15 * st.Float64(), catalog.Tornado: st.Float64() / 11,
				catalog.Flood: 0,
			}[p]
		case 2: // reach beyond the cutoff
			ev.RadiusKm = r / 5
		}
		events = append(events, ev)
	}
	return catalog.NewCatalog(events), db
}

func TestRunMatchesFullScanReachBook(t *testing.T) {
	cat, db := reachBook(t)
	byPeril := recordsByPeril(cat, requireOracle(t, cat, db))
	for p, n := range byPeril {
		if n < 20 {
			t.Fatalf("%v: only %d records (%v)", catalog.Peril(p), n, byPeril)
		}
	}
}

// Interests need not be grouped by location: each run of one location
// is its own site, and the sums still go in interest order.
func TestRunMatchesFullScanUngroupedInterests(t *testing.T) {
	cat, db := smallWorld(t, 2000, 60, 21)
	st := rng.NewStream(7, 0)
	shuffled := &exposure.Database{Locations: db.Locations}
	for _, i := range st.Perm(len(db.Interests)) {
		shuffled.Interests = append(shuffled.Interests, db.Interests[i])
	}
	// Two consecutive interests at one location share a site.
	shuffled.Interests = append(shuffled.Interests, shuffled.Interests[len(shuffled.Interests)-1])
	sites, err := NewSites(nil, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites.pos) >= sites.Interests() || len(sites.pos) <= len(db.Locations) {
		t.Fatalf("%d sites for %d interests at %d locations", len(sites.pos), sites.Interests(), len(db.Locations))
	}
	if requireOracle(t, cat, shuffled).Len() == 0 {
		t.Fatal("ungrouped book produced no records")
	}
}

// reachEvent is an event of peril p at (lat, lon) whose reach is about
// r km: its magnitude (or, for flood, its radius) inverts the peril's
// zero-intensity radius formula. Rounding puts the reach within a few
// ulps of r, on either side.
func reachEvent(st *rng.Stream, p catalog.Peril, lat, lon, r float64) catalog.Event {
	ev := catalog.Event{ID: 1, Peril: p, Lat: lat, Lon: lon, RadiusKm: (0.2 + 2*st.Float64()) * r}
	if ev.RadiusKm == 0 {
		ev.RadiusKm = 50 * st.Float64()
	}
	switch p {
	case catalog.Earthquake:
		ev.Magnitude = (3.2*math.Log(r+8) - 2) / 1.8
	case catalog.Hurricane:
		ev.Magnitude = 40 * r / ev.RadiusKm
	case catalog.WinterStorm:
		ev.Magnitude = 30 * r / ev.RadiusKm
	case catalog.Tornado:
		ev.Magnitude = math.Exp(r/ev.RadiusKm) / 11
	default:
		ev.Magnitude, ev.RadiusKm = 0.5+3*st.Float64(), r/3
	}
	return ev
}

// The cull rejects a pair only when its great-circle distance is at
// least the cutoff, over random pairs and adversarial ones: across
// ±180° longitude, at and near both poles, coincident or nearly
// coincident points, zero cutoffs and cutoffs within an ulp of the
// distance. It must also reject pairs well outside the cutoff, or it
// would cull nothing. For every peril, an event whose reach lies
// within an ulp, 1e-12, 1e-6 or a fraction of the pair's distance is
// culled only where IntensityAt is exactly 0.
func TestCullNeverRejectsInRange(t *testing.T) {
	st := rng.NewStream(3, 0)
	uniform := func() (float64, float64) {
		return math.Asin(2*st.Float64()-1) * 180 / math.Pi, -180 + 360*st.Float64()
	}
	nudge := func(lat, lon, scale float64) (float64, float64) {
		lat += scale * (2*st.Float64() - 1)
		lat = math.Max(-90, math.Min(90, lat))
		return lat, lon + scale*(2*st.Float64()-1)
	}
	pair := func(k int) (lat1, lon1, lat2, lon2 float64) {
		lat1, lon1 = uniform()
		scale := math.Pow(10, -12+14*st.Float64()) // 1e-12° .. 100°
		switch k % 6 {
		case 0: // unrelated points
			lat2, lon2 = uniform()
		case 1: // near each other
			lat2, lon2 = nudge(lat1, lon1, scale)
		case 2: // across the antimeridian
			lon1 = 180 - scale*st.Float64()
			lat2, lon2 = nudge(lat1, -180, scale)
		case 3: // near or at a pole
			lat1 = math.Copysign(90-scale*st.Float64(), lat1)
			if st.Float64() < 0.2 {
				lat1 = math.Copysign(90, lat1)
			}
			lat2, lon2 = nudge(lat1, -180+360*st.Float64(), scale)
		case 4: // coincident, or the same point spelled ±180°
			lat2, lon2 = lat1, lon1
			if st.Float64() < 0.5 {
				lon1, lon2 = 180, -180
			}
		default: // near-antipodal
			lat2, lon2 = nudge(-lat1, lon1+180, scale)
		}
		return lat1, lon1, lat2, lon2
	}
	var h hazard.Model
	const pairs = 1 << 20
	var inRange, culled, felt, reachCulled int
	for k := 0; k < pairs; k++ {
		lat1, lon1, lat2, lon2 := pair(k)
		d := hazard.DistanceKm(lat1, lon1, lat2, lon2)
		c2 := unit(lat2, lon2).chord2(unit(lat1, lon1))
		p := catalog.Peril(k % catalog.NumPerils)
		r := d * (1 + []float64{0, 1e-15, 1e-12, 1e-6, 0.5}[st.Intn(5)]*(2*st.Float64()-1))
		ev := reachEvent(st, p, lat1, lon1, r)
		inten := h.IntensityAt(ev, lat2, lon2)
		rejected := c2 >= cullChord2(h.ReachKm(ev))
		if rejected && inten != 0 {
			t.Fatalf("culled (%v, %v)-(%v, %v) at %v km from %v M=%v R=%v: intensity %v, reach %v km",
				lat1, lon1, lat2, lon2, d, p, ev.Magnitude, ev.RadiusKm, inten, h.ReachKm(ev))
		}
		if inten > 0 {
			felt++
		}
		if rejected && d < h.CutoffKm(ev) {
			reachCulled++
		}
		for _, cut := range []float64{
			math.Nextafter(d, math.Inf(1)), d, 0,
			d * (1 + 1e-12*st.Float64()), 2 * d * st.Float64(),
		} {
			rejected := c2 >= cullChord2(cut)
			if d < cut {
				inRange++
				if rejected {
					t.Fatalf("culled (%v, %v)-(%v, %v): distance %v km < cut %v km",
						lat1, lon1, lat2, lon2, d, cut)
				}
			}
			if 0.6*d > cut*(1+1e-9)+1e-3 {
				if !rejected {
					t.Fatalf("kept (%v, %v)-(%v, %v): distance %v km, cut %v km",
						lat1, lon1, lat2, lon2, d, cut)
				}
				culled++
			}
		}
	}
	if inRange < pairs || culled < pairs/4 || felt < pairs/8 || reachCulled < pairs/64 {
		t.Fatalf("weak coverage: %d in-range and %d cullable checks, %d felt pairs, %d culled inside the cutoff",
			inRange, culled, felt, reachCulled)
	}
}
