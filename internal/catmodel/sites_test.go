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
// bit, and returns the record count.
func requireOracle(t *testing.T, cat *catalog.Catalog, db *exposure.Database) int {
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
	return want.Len()
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
		if n := requireOracle(t, cat, db); n == 0 {
			t.Fatal("default book produced no records")
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
	if n := requireOracle(t, cat, db); n < 100 {
		t.Fatalf("edge book produced only %d records", n)
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
	if n := requireOracle(t, cat, shuffled); n == 0 {
		t.Fatal("ungrouped book produced no records")
	}
}

// The cull rejects a pair only when its great-circle distance is at
// least the cutoff, over random pairs and adversarial ones: across
// ±180° longitude, at and near both poles, coincident or nearly
// coincident points, zero cutoffs and cutoffs within an ulp of the
// distance. It must also reject pairs well outside the cutoff, or it
// would cull nothing.
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
	const pairs = 1 << 20
	var inRange, culled int
	for k := 0; k < pairs; k++ {
		lat1, lon1, lat2, lon2 := pair(k)
		d := hazard.DistanceKm(lat1, lon1, lat2, lon2)
		c2 := unit(lat2, lon2).chord2(unit(lat1, lon1))
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
	if inRange < pairs || culled < pairs/4 {
		t.Fatalf("weak coverage: %d in-range and %d cullable checks", inRange, culled)
	}
}
