package report

// JSON export of sweep results. The wire types live in the public api
// package, the one versioned schema; spexp -json writes a sweep in it,
// and this file converts the internal result struct to it.

import (
	"repro/api"
	"repro/internal/experiment"
)

// SweepResultJSON converts sweep results to their wire form.
func SweepResultJSON(r *experiment.Results) *api.SweepResult {
	out := &api.SweepResult{
		Cores:        r.Config.Cores,
		Tasks:        r.Config.Tasks,
		SetsPerPoint: r.Config.SetsPerPoint,
		Seed:         r.Config.Seed,
		Admission:    r.Admission.Wire(),
	}
	m := float64(r.Config.Cores)
	for _, s := range r.Series {
		series := api.SweepSeries{Algorithm: s.Algorithm}
		for _, p := range s.Points {
			series.Points = append(series.Points, api.SweepPoint{
				TotalUtilization:   p.TotalUtilization,
				PerCoreUtilization: p.TotalUtilization / m,
				Accepted:           p.Accepted,
				Total:              p.Total,
				Ratio:              p.Ratio,
				WilsonLo:           p.WilsonLo,
				WilsonHi:           p.WilsonHi,
				MeanSplits:         p.Splits,
				SimViolations:      p.SimViolations,
			})
		}
		out.Series = append(out.Series, series)
	}
	return out
}
