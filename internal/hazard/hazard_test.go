package hazard

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/rng"
)

func TestDistanceKnown(t *testing.T) {
	// London to Paris ≈ 344 km.
	d := DistanceKm(51.5074, -0.1278, 48.8566, 2.3522)
	if math.Abs(d-344) > 5 {
		t.Fatalf("London-Paris = %v km, want ~344", d)
	}
	if DistanceKm(10, 20, 10, 20) != 0 {
		t.Fatal("zero distance to self")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		lat1 := math.Mod(math.Abs(a), 90)
		lon1 := math.Mod(math.Abs(b), 180)
		lat2 := math.Mod(math.Abs(c), 90)
		lon2 := math.Mod(math.Abs(d), 180)
		d1 := DistanceKm(lat1, lon1, lat2, lon2)
		d2 := DistanceKm(lat2, lon2, lat1, lon1)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func eventAt(p catalog.Peril, mag, radius float64) catalog.Event {
	return catalog.Event{ID: 1, Peril: p, Lat: 30, Lon: -90, Magnitude: mag, RadiusKm: radius}
}

func TestIntensityDecaysWithDistance(t *testing.T) {
	var m Model
	for _, p := range []catalog.Peril{catalog.Earthquake, catalog.Hurricane, catalog.Flood, catalog.WinterStorm, catalog.Tornado} {
		ev := eventAt(p, 7.5, 100)
		if p == catalog.Hurricane {
			ev.Magnitude = 55
		}
		if p == catalog.Flood {
			ev.Magnitude = 3
		}
		if p == catalog.WinterStorm {
			ev.Magnitude = 40
		}
		if p == catalog.Tornado {
			ev.Magnitude = 4
		}
		prev := m.IntensityAt(ev, ev.Lat, ev.Lon)
		if prev <= 0 {
			t.Fatalf("%v: zero intensity at epicenter", p)
		}
		for _, dLat := range []float64{0.2, 0.5, 1.0, 2.0, 4.0} {
			cur := m.IntensityAt(ev, ev.Lat+dLat, ev.Lon)
			if cur > prev+1e-9 {
				t.Fatalf("%v: intensity increased with distance (%v -> %v at dLat %v)", p, prev, cur, dLat)
			}
			prev = cur
		}
	}
}

func TestIntensityZeroBeyondCutoff(t *testing.T) {
	var m Model
	ev := eventAt(catalog.Earthquake, 8, 50)
	// cutoff = 3 * 50 km = 150 km ≈ 1.35 degrees latitude
	if i := m.IntensityAt(ev, ev.Lat+2.0, ev.Lon); i != 0 {
		t.Fatalf("intensity %v beyond cutoff, want 0", i)
	}
}

func TestIntensityGrowsWithMagnitude(t *testing.T) {
	var m Model
	small := eventAt(catalog.Earthquake, 5.5, 60)
	big := eventAt(catalog.Earthquake, 8.0, 60)
	at := func(ev catalog.Event) Intensity { return m.IntensityAt(ev, ev.Lat+0.3, ev.Lon) }
	if at(big) <= at(small) {
		t.Fatalf("M8 intensity %v <= M5.5 intensity %v", at(big), at(small))
	}
}

func TestIntensityBounds(t *testing.T) {
	var m Model
	f := func(magRaw, dRaw uint16) bool {
		mag := 5 + float64(magRaw%35)/10 // 5 .. 8.5
		d := float64(dRaw%500) / 100     // 0 .. 5 degrees
		ev := eventAt(catalog.Earthquake, mag, 80)
		i := m.IntensityAt(ev, ev.Lat+d, ev.Lon)
		return i >= 0 && i <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTornadoSharpFalloff(t *testing.T) {
	var m Model
	ev := eventAt(catalog.Tornado, 4.5, 5)
	center := m.IntensityAt(ev, ev.Lat, ev.Lon)
	off := m.IntensityAt(ev, ev.Lat+0.1, ev.Lon) // ~11 km off track
	if center < 5 {
		t.Fatalf("direct tornado hit intensity %v too small", center)
	}
	if off > center/2 {
		t.Fatalf("tornado intensity %v at 11km should be far below center %v", off, center)
	}
}

func TestDecayProfile(t *testing.T) {
	if decay(0, 100) != 1 || decay(50, 100) != 1 {
		t.Error("flat inside half radius")
	}
	if d := decay(100, 100); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("decay at radius = %v, want 0.5", d)
	}
	if decay(10, 0) != 0 {
		t.Error("zero radius yields zero")
	}
}

// zeroRadiusMagnitude is the magnitude at which p's zero-intensity
// radius is 0 (and below which it is negative), for the perils whose
// radius depends on the magnitude alone or on M·R.
func zeroRadiusMagnitude(p catalog.Peril) float64 {
	switch p {
	case catalog.Earthquake:
		return (3.2*math.Log(8) - 2) / 1.8
	case catalog.Tornado:
		return 1.0 / 11
	}
	return 0
}

// IntensityAt is exactly 0 at every distance at or beyond ReachKm:
// one ulp past it, just past it, well past it and past the cutoff, for
// every peril over the catalogue's magnitude ranges and beyond, at
// magnitudes within a few ulps of where the radius is 0, where it
// is below R/2 (hurricane and winter storm below their damage
// thresholds), where it exceeds CutoffKm, and at R = 0. Where the
// event is felt and its reach is inside the cutoff, the intensity
// just inside the reach is positive, so the reach is no looser than
// it needs to be.
func TestIntensityZeroFromReach(t *testing.T) {
	var m Model
	st := rng.NewStream(5, 0)
	perils := []catalog.Peril{catalog.Earthquake, catalog.Hurricane, catalog.Flood, catalog.WinterStorm, catalog.Tornado}
	magRange := map[catalog.Peril][2]float64{
		catalog.Earthquake:  {-2, 12},
		catalog.Hurricane:   {0, 200},
		catalog.Flood:       {0, 6},
		catalog.WinterStorm: {0, 150},
		catalog.Tornado:     {0, 8},
	}
	var checks, tight, zeroReach, halfR, beyondCut int
	for _, p := range perils {
		for k := 0; k < 40_000; k++ {
			ev := eventAt(p, 0, math.Exp(-6+14*st.Float64())) // R from 2.5 m to 3,000 km
			lo, hi := magRange[p][0], magRange[p][1]
			ev.Magnitude = lo + (hi-lo)*st.Float64()
			switch k % 8 {
			case 0: // within 32 ulps of a zero radius
				ev.Magnitude = zeroRadiusMagnitude(p)
				dir := math.Inf(1)
				if st.Float64() < 0.5 {
					dir = math.Inf(-1)
				}
				for j := st.Intn(33); j > 0; j-- {
					ev.Magnitude = math.Nextafter(ev.Magnitude, dir)
				}
			case 1:
				ev.RadiusKm = 0
			}
			reach, cut := m.ReachKm(ev), m.CutoffKm(ev)
			if !(reach >= 0 && reach <= cut) {
				t.Fatalf("%v M=%v R=%v: reach %v outside [0, cutoff %v]", p, ev.Magnitude, ev.RadiusKm, reach, cut)
			}
			switch {
			case reach == 0:
				zeroReach++
			case reach == cut && p != catalog.Flood:
				beyondCut++
			case reach < ev.RadiusKm/2:
				halfR++
			}
			for _, d := range []float64{
				reach, math.Nextafter(reach, math.Inf(1)), reach * (1 + 1e-15),
				reach * (1 + 1e-12*st.Float64()), reach + 1e-9*st.Float64(),
				reach * (1 + st.Float64()), cut, 2*cut + 1,
			} {
				checks++
				if i := m.intensity(ev, d); i != 0 {
					t.Fatalf("%v M=%v R=%v: intensity %v at %v km, reach %v km",
						p, ev.Magnitude, ev.RadiusKm, i, d, reach)
				}
			}
			if reach > 1e-3 && reach < cut && m.intensity(ev, 0) > 0 {
				tight++
				if m.intensity(ev, reach*(1-1e-6)) <= 0 {
					t.Fatalf("%v M=%v R=%v: intensity 0 inside the reach %v km", p, ev.Magnitude, ev.RadiusKm, reach)
				}
			}
		}
	}
	if tight < 30_000 || zeroReach < 10_000 || halfR < 5_000 || beyondCut < 5_000 {
		t.Fatalf("weak coverage: %d tight, %d zero-reach, %d below R/2, %d capped at the cutoff (of %d checks)",
			tight, zeroReach, halfR, beyondCut, checks)
	}
}

// The exported IntensityAt is intensity at the haversine distance, so
// a site past the reach along a meridian gets exactly 0.
func TestIntensityAtPastReach(t *testing.T) {
	var m Model
	for _, p := range []catalog.Peril{catalog.Earthquake, catalog.Hurricane, catalog.Flood, catalog.WinterStorm, catalog.Tornado} {
		ev := eventAt(p, map[catalog.Peril]float64{
			catalog.Earthquake: 7, catalog.Hurricane: 55, catalog.Flood: 3,
			catalog.WinterStorm: 40, catalog.Tornado: 4,
		}[p], 100)
		reach := m.ReachKm(ev)
		dLat := reach / (EarthRadiusKm * math.Pi / 180)
		if m.IntensityAt(ev, ev.Lat+0.999*dLat, ev.Lon) <= 0 {
			t.Fatalf("%v: intensity 0 just inside the reach %v km", p, reach)
		}
		lat := ev.Lat + dLat
		for DistanceKm(ev.Lat, ev.Lon, lat, ev.Lon) < reach {
			lat = math.Nextafter(lat, 90)
		}
		if i := m.IntensityAt(ev, lat, ev.Lon); i != 0 {
			t.Fatalf("%v: intensity %v at the reach %v km", p, i, reach)
		}
	}
}
