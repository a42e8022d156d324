package metrics

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/ylt"
)

// summaryCases are the loss vectors the one-sort Summarize is pinned
// on: trial counts either side of the 250-year row, a large table,
// mostly-zero years, heavy ties, enterprise gains and signed zeros.
func summaryCases() map[string]*ylt.Table {
	st := rng.New(41)
	gen := func(n int, f func(i int) (agg, occ float64)) *ylt.Table {
		t := ylt.New("case", n)
		for i := range t.Agg {
			t.Agg[i], t.OccMax[i] = f(i)
		}
		return t
	}
	pareto := func(int) (float64, float64) {
		a := st.Pareto(1e5, 1.8)
		return a, a * st.Float64()
	}
	return map[string]*ylt.Table{
		"1-trial":   gen(1, pareto),
		"249-trial": gen(249, pareto),
		"250-trial": gen(250, pareto),
		"100k":      gen(100_000, pareto),
		"70pct-zeros": gen(20_000, func(int) (float64, float64) {
			if st.Float64() < 0.7 {
				return 0, 0
			}
			return pareto(0)
		}),
		"duplicates": gen(20_000, func(int) (float64, float64) {
			a := float64(st.Intn(5)) * 1e6
			return a, a / 2
		}),
		"negative": gen(20_000, func(int) (float64, float64) {
			// Enterprise years: gains are negative losses.
			return st.Normal(-2e6, 5e6), st.Pareto(1e5, 1.8)
		}),
		"signed-zeros": gen(5_000, func(i int) (float64, float64) {
			switch st.Intn(4) {
			case 0:
				return math.Copysign(0, -1), math.Copysign(0, -1)
			case 1:
				return 0, 0
			case 2:
				return -1e3 * st.Float64(), 0
			}
			return 1e3 * st.Float64(), math.Copysign(0, -1)
		}),
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Summarize reads VaR, TVaR and the return rows off one sorted copy
// per vector; every figure must equal the free functions bit for bit.
func TestSummarizeMatchesFreeFunctions(t *testing.T) {
	for name, tbl := range summaryCases() {
		t.Run(name, func(t *testing.T) {
			s, err := Summarize(tbl)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				label string
				got   float64
				p     float64
				tail  bool
			}{
				{"VaR99", s.VaR99, 0.99, false},
				{"TVaR99", s.TVaR99, 0.99, true},
				{"VaR995", s.VaR995, 0.995, false},
				{"TVaR995", s.TVaR995, 0.995, true},
			} {
				f := VaR
				if c.tail {
					f = TVaR
				}
				want, err := f(tbl.Agg, c.p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(c.got, want) {
					t.Errorf("%s = %v (%#x), free path %v (%#x)", c.label, c.got, math.Float64bits(c.got), want, math.Float64bits(want))
				}
			}
			aep, err := NewEPCurve(tbl.Agg)
			if err != nil {
				t.Fatal(err)
			}
			oep, err := NewEPCurve(tbl.OccMax)
			if err != nil {
				t.Fatal(err)
			}
			var want []ReturnRow
			for _, rp := range StandardReturnPeriods {
				if float64(tbl.NumTrials()) < rp {
					continue
				}
				a, _ := aep.LossAtReturnPeriod(rp)
				o, _ := oep.LossAtReturnPeriod(rp)
				want = append(want, ReturnRow{ReturnPeriod: rp, OEP: o, AEP: a})
			}
			if len(s.ReturnRows) != len(want) {
				t.Fatalf("%d return rows, want %d", len(s.ReturnRows), len(want))
			}
			for i, r := range s.ReturnRows {
				w := want[i]
				if r.ReturnPeriod != w.ReturnPeriod || !sameBits(r.OEP, w.OEP) || !sameBits(r.AEP, w.AEP) {
					t.Errorf("row %d = %+v, free path %+v", i, r, w)
				}
			}
		})
	}
}

// A NaN or ±Inf anywhere in a loss vector is an error naming the
// first bad trial, never a summary with a NaN AAL or an infinite TVaR.
func TestSummarizeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, occ := range []bool{false, true} {
			tbl := ylt.New("bad", 1000)
			for i := range tbl.Agg {
				tbl.Agg[i] = float64(i)
				tbl.OccMax[i] = float64(i) / 2
			}
			col := tbl.Agg
			if occ {
				col = tbl.OccMax
			}
			col[437], col[900] = bad, bad
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "trial 437 ") {
					t.Errorf("%s with %v (occurrence column %v): err = %v, want ErrNonFinite naming trial 437", what, bad, occ, err)
				}
			}
			_, err := Summarize(tbl)
			check("Summarize", err)
			_, err = NewEPCurve(col)
			check("NewEPCurve", err)
			if occ {
				_, err = PML(tbl, 250)
				check("PML", err)
			} else {
				_, err = VaR(col, 0.99)
				check("VaR", err)
				_, err = TVaR(col, 0.99)
				check("TVaR", err)
			}
		}
	}
}

// Summarize copies each loss vector once (the sorted AEP and OEP
// curves) and nothing else of size n.
func TestSummarizeCopiesEachVectorOnce(t *testing.T) {
	const n = 1 << 20
	tbl := ylt.New("alloc", n)
	st := rng.New(5)
	for i := range tbl.Agg {
		tbl.Agg[i] = st.Pareto(1e5, 1.8)
		tbl.OccMax[i] = tbl.Agg[i] / 2
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Summarize(tbl); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(2*8*n + 64<<10); got > limit {
		t.Fatalf("Summarize of %d trials allocated %d bytes (%.1f×8n), limit %d", n, got, float64(got)/(8*n), limit)
	}
}
