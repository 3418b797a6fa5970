package api

import (
	"encoding/json"
	"io"
)

// AdmissionStats is the wire form of the admission-work counters,
// with the derived rates precomputed so consumers need no formulas.
type AdmissionStats struct {
	Probes           int64   `json:"probes"`
	FullTests        int64   `json:"full_tests"`
	CoreTests        int64   `json:"core_tests"`
	VerdictHits      int64   `json:"verdict_hits"`
	FPSolves         int64   `json:"fp_solves"`
	FPIterations     int64   `json:"fp_iterations"`
	WarmStarts       int64   `json:"warm_starts"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	MeanFPIterations float64 `json:"mean_fp_iterations"`
	WarmStartRate    float64 `json:"warm_start_rate"`
}

// SweepPoint is one (algorithm × utilization) cell.
type SweepPoint struct {
	TotalUtilization   float64 `json:"total_utilization"`
	PerCoreUtilization float64 `json:"per_core_utilization"`
	Accepted           int     `json:"accepted"`
	Total              int     `json:"total"`
	Ratio              float64 `json:"ratio"`
	WilsonLo           float64 `json:"wilson_lo"`
	WilsonHi           float64 `json:"wilson_hi"`
	MeanSplits         float64 `json:"mean_splits"`
	SimViolations      int     `json:"sim_violations"`
}

// SweepSeries is one algorithm's acceptance curve.
type SweepSeries struct {
	Algorithm string       `json:"algorithm"`
	Points    []SweepPoint `json:"points"`
}

// SweepResult is the wire form of a whole acceptance-ratio sweep, as
// spexp -json writes it.
type SweepResult struct {
	Cores        int            `json:"cores"`
	Tasks        int            `json:"tasks"`
	SetsPerPoint int            `json:"sets_per_point"`
	Seed         int64          `json:"seed"`
	Series       []SweepSeries  `json:"series"`
	Admission    AdmissionStats `json:"admission"`
}

// Encode writes the sweep as indented JSON.
func (s *SweepResult) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
