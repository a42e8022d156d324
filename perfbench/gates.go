package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
)

// The correctness gates compare outputs through their JSON encodings.
// encoding/json writes the shortest decimal that reads back as the same
// float64, so two values differing by one ulp encode differently.

// summaryView is a risk summary as the serving tier encodes it.
type summaryView struct {
	Name          string       `json:"name"`
	Trials        int          `json:"trials"`
	AAL           float64      `json:"aal"`
	StdDev        float64      `json:"stddev"`
	VaR99         float64      `json:"var99"`
	TVaR99        float64      `json:"tvar99"`
	VaR995        float64      `json:"var995"`
	TVaR995       float64      `json:"tvar995"`
	ReturnPeriods []returnView `json:"return_periods"`
}

type returnView struct {
	Years float64 `json:"years"`
	OEP   float64 `json:"oep"`
	AEP   float64 `json:"aep"`
}

func viewOf(s *metrics.Summary) summaryView {
	v := summaryView{
		Name: s.Name, Trials: s.Trials, AAL: s.AAL, StdDev: s.AggStdDev,
		VaR99: s.VaR99, TVaR99: s.TVaR99, VaR995: s.VaR995, TVaR995: s.TVaR995,
	}
	for _, r := range s.ReturnRows {
		v.ReturnPeriods = append(v.ReturnPeriods, returnView{Years: r.ReturnPeriod, OEP: r.OEP, AEP: r.AEP})
	}
	slices.SortFunc(v.ReturnPeriods, func(a, b returnView) int {
		switch {
		case a.Years < b.Years:
			return -1
		case a.Years > b.Years:
			return 1
		}
		return 0
	})
	return v
}

// quoteView is the served quote without its timing.
type quoteView struct {
	ContractID uint32  `json:"contract_id"`
	Trials     int     `json:"trials"`
	AAL        float64 `json:"aal"`
	StdDev     float64 `json:"stddev"`
	TVaR99     float64 `json:"tvar99"`
	PML250     float64 `json:"pml250"`
	Premium    float64 `json:"premium"`
}

// sameJSON reports whether want and got encode identically; what names
// the compared output in the error.
func sameJSON(what string, want, got any) error {
	a, err := json.Marshal(want)
	if err != nil {
		return fmt.Errorf("%s: encoding expected output: %w", what, err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		return fmt.Errorf("%s: encoding output: %w", what, err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s differs:\n  want %s\n  got  %s", what, a, b)
	}
	return nil
}

// sameSummary is the study gate: two summaries equal bit for bit.
func sameSummary(what string, want, got *metrics.Summary) error {
	return sameJSON(what, viewOf(want), viewOf(got))
}

// digest is a short fingerprint of a summary for the run log.
func digest(s *metrics.Summary) string {
	b, err := json.Marshal(viewOf(s))
	if err != nil {
		return "unencodable"
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// checkSummary rejects a summary that cannot describe a loss
// distribution over the requested trial count.
func checkSummary(what string, s *metrics.Summary, trials int) error {
	v := viewOf(s)
	vals := []float64{v.AAL, v.StdDev, v.VaR99, v.TVaR99, v.VaR995, v.TVaR995}
	for _, r := range v.ReturnPeriods {
		vals = append(vals, r.OEP, r.AEP)
	}
	for _, x := range vals {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s: non-finite value %v", what, x)
		}
	}
	switch {
	case v.Trials != trials:
		return fmt.Errorf("%s: %d trials, want %d", what, v.Trials, trials)
	case v.VaR99 > v.VaR995 || v.VaR99 > v.TVaR99 || v.VaR995 > v.TVaR995:
		return fmt.Errorf("%s: tail measures out of order: %+v", what, v)
	}
	return nil
}
