package catmodel

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/exposure"
	"repro/internal/financial"
	"repro/internal/hazard"
	"repro/internal/vulnerability"
)

// defaultTerms is the standard policy for an interest by occupancy;
// it applies wherever a terms selector is nil.
func defaultTerms(in exposure.Interest) financial.Terms {
	switch in.Occupancy {
	case exposure.Commercial, exposure.Industrial:
		return financial.StandardCommercial(in.Value)
	default:
		return financial.StandardResidential(in.Value)
	}
}

// point is a position on the unit sphere.
type point struct{ x, y, z float64 }

// unit maps degrees to the unit sphere, converting to radians with the
// same expression as hazard.DistanceKm.
func unit(lat, lon float64) point {
	const deg = math.Pi / 180
	sinLat, cosLat := math.Sincos(lat * deg)
	sinLon, cosLon := math.Sincos(lon * deg)
	return point{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// chord2 is the squared straight-line distance between two points of
// the unit sphere.
func (p point) chord2(q point) float64 {
	dx, dy, dz := p.x-q.x, p.y-q.y, p.z-q.z
	return dx*dx + dy*dy + dz*dz
}

// cullChord2 is the squared unit-sphere chord at or beyond which a site
// is certainly no closer than cutKm along the great circle. A chord
// never exceeds its arc, so R·chord ≥ cut implies distance ≥ cut; the
// margin (relative 1e-9, absolute 1 mm) absorbs the rounding of both
// the chord and the haversine, which are far smaller.
func cullChord2(cutKm float64) float64 {
	c := (cutKm*(1+1e-9) + 1e-6) / hazard.EarthRadiusKm
	return c * c
}

// Sites is the columnar stage-1 view of an exposure set. A site is a
// run of consecutive interests at one location: its coordinates and
// unit vector are stored once, and its interests are
// first[s]..first[s+1]-1 in the per-interest columns, which keep the
// databases' interest order.
type Sites struct {
	lat, lon []float64
	pos      []point
	first    []int

	values []float64
	cons   []exposure.Construction
	terms  []financial.Terms
}

// NewSites builds the site table of the given databases' interests, in
// order. termsFor selects policy terms per interest; nil applies
// standard terms by occupancy. It rejects coordinates that are not finite or whose
// latitude is outside ±90°, interest values that are not finite, and
// interests pointing at no location.
func NewSites(termsFor func(exposure.Interest) financial.Terms, dbs ...*exposure.Database) (*Sites, error) {
	if termsFor == nil {
		termsFor = defaultTerms
	}
	s := &Sites{}
	for d, db := range dbs {
		for _, loc := range db.Locations {
			if err := checkPoint(loc.Lat, loc.Lon); err != nil {
				return nil, fmt.Errorf("catmodel: database %d location %d: %w", d, loc.ID, err)
			}
		}
		prev := -1 // location of the open site
		for i, in := range db.Interests {
			if in.LocationIndex < 0 || in.LocationIndex >= len(db.Locations) {
				return nil, fmt.Errorf("catmodel: database %d interest %d: location index %d out of range", d, i, in.LocationIndex)
			}
			if math.IsNaN(in.Value) || math.IsInf(in.Value, 0) {
				return nil, fmt.Errorf("catmodel: database %d interest %d: value %g is not finite", d, i, in.Value)
			}
			if in.LocationIndex != prev {
				s.first = append(s.first, len(s.values))
				loc := db.Locations[in.LocationIndex]
				s.lat = append(s.lat, loc.Lat)
				s.lon = append(s.lon, loc.Lon)
				s.pos = append(s.pos, unit(loc.Lat, loc.Lon))
				prev = in.LocationIndex
			}
			s.values = append(s.values, in.Value)
			s.cons = append(s.cons, in.Construction)
			s.terms = append(s.terms, termsFor(in))
		}
	}
	s.first = append(s.first, len(s.values))
	return s, nil
}

// Interests returns the number of insured interests.
func (s *Sites) Interests() int { return len(s.values) }

// checkPoint rejects coordinates the distance and cull arithmetic
// cannot place on the sphere.
func checkPoint(lat, lon float64) error {
	if math.IsNaN(lat) || math.IsNaN(lon) || math.IsInf(lon, 0) || math.Abs(lat) > 90 {
		return fmt.Errorf("coordinates (%g, %g) are not a finite point with |lat| <= 90", lat, lon)
	}
	return nil
}

// CheckEvent rejects an event whose coordinates are not a finite
// point with |lat| <= 90, whose radius is negative or not finite, or
// whose magnitude is not finite.
func CheckEvent(ev catalog.Event) error {
	if err := checkPoint(ev.Lat, ev.Lon); err != nil {
		return fmt.Errorf("catmodel: event %d: %w", ev.ID, err)
	}
	if !(ev.RadiusKm >= 0) || math.IsInf(ev.RadiusKm, 1) {
		return fmt.Errorf("catmodel: event %d: radius %g km is not finite and non-negative", ev.ID, ev.RadiusKm)
	}
	if math.IsNaN(ev.Magnitude) || math.IsInf(ev.Magnitude, 0) {
		return fmt.Errorf("catmodel: event %d: magnitude %g is not finite", ev.ID, ev.Magnitude)
	}
	return nil
}

// Totals are one event's sums over the interests it damages.
type Totals struct {
	Interests int     // interests with a positive gross mean or SD
	Exposed   float64 // their insured value
	GroundUp  float64 // ground-up mean loss
	Mean      float64 // gross mean loss
	VarI      float64 // Σ (1-corr)·σ², the independent gross variance
	SigmaC    float64 // Σ √corr·σ, the correlated gross SD
}

// EventTotals sums the losses ev inflicts on the table, corr being the
// correlated share of each interest's gross variance. A site is culled
// when its chord to the event already puts it beyond the event's reach
// (hazard.Model.ReachKm); every other site gets one IntensityAt call,
// and its interests are added in ascending order. Culled sites would
// have had intensity exactly 0, so the sums equal those of evaluating
// every interest in order (EventTotalsFullScan), bit for bit. The event
// must pass CheckEvent.
func (s *Sites) EventTotals(ev catalog.Event, h hazard.Model, v *vulnerability.Matrix, corr float64) Totals {
	var t Totals
	at, cut2 := unit(ev.Lat, ev.Lon), cullChord2(h.ReachKm(ev))
	sqrtCorr := math.Sqrt(corr)
	for k, p := range s.pos {
		if p.chord2(at) >= cut2 {
			continue
		}
		inten := h.IntensityAt(ev, s.lat[k], s.lon[k])
		if inten <= 0 {
			continue
		}
		for i := s.first[k]; i < s.first[k+1]; i++ {
			s.add(&t, ev.Peril, v, inten, i, corr, sqrtCorr)
		}
	}
	return t
}

// EventTotalsFullScan is EventTotals without the cull, calling
// IntensityAt for every interest: the reference the cull is pinned
// against.
func (s *Sites) EventTotalsFullScan(ev catalog.Event, h hazard.Model, v *vulnerability.Matrix, corr float64) Totals {
	var t Totals
	sqrtCorr := math.Sqrt(corr)
	for k := range s.pos {
		for i := s.first[k]; i < s.first[k+1]; i++ {
			if inten := h.IntensityAt(ev, s.lat[k], s.lon[k]); inten > 0 {
				s.add(&t, ev.Peril, v, inten, i, corr, sqrtCorr)
			}
		}
	}
	return t
}

// add folds interest i at positive intensity into t.
func (s *Sites) add(t *Totals, p catalog.Peril, v *vulnerability.Matrix, inten hazard.Intensity, i int, corr, sqrtCorr float64) {
	mdr, sd := v.DamageMoments(p, s.cons[i], inten)
	if mdr <= 0 {
		return
	}
	guMean := mdr * s.values[i]
	guSD := sd * s.values[i]
	gMean, gSD := s.terms[i].ApplyMoments(guMean, guSD)
	if gMean <= 0 && gSD <= 0 {
		return
	}
	t.Interests++
	t.Exposed += s.values[i]
	t.GroundUp += guMean
	t.Mean += gMean
	t.VarI += (1 - corr) * gSD * gSD
	t.SigmaC += sqrtCorr * gSD
}
