package dfa

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// stableRankOracle is the ranking Run used before the pair sort: a
// stable sort of trial indices by loss.
func stableRankOracle(losses []float64) []int {
	idx := make([]int, len(losses))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return losses[idx[a]] < losses[idx[b]] })
	return idx
}

func TestRankOrderMatchesStableSort(t *testing.T) {
	st := rng.New(17)
	vec := func(n int, f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	cases := map[string][]float64{
		"empty":     {},
		"one":       {3},
		"all-equal": vec(5_000, func() float64 { return 7 }),
		"70pct-zeros": vec(50_000, func() float64 {
			if st.Float64() < 0.7 {
				return 0
			}
			return st.Pareto(1e6, 1.6)
		}),
		"few-values": vec(50_000, func() float64 { return float64(st.Intn(4)) }),
		"signed-zeros": vec(20_000, func() float64 {
			switch st.Intn(3) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return float64(st.Intn(3) - 1)
		}),
		"negative-ties": vec(50_000, func() float64 { return -float64(st.Intn(50)) * 1e5 }),
		"distinct":      vec(50_000, func() float64 { return st.Normal(0, 1e6) }),
	}
	for name, losses := range cases {
		if got, want := rankOrder(losses), stableRankOracle(losses); !slices.Equal(got, want) {
			t.Errorf("%s: rank order differs from the stable-sort oracle", name)
		}
	}
}
