package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/api"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/overhead"
	"repro/internal/partition"
)

// TestSweepResultJSONRoundTrip runs a tiny sweep and checks the wire
// form carries the cells, derived utilizations and admission rates.
func TestSweepResultJSONRoundTrip(t *testing.T) {
	res := experiment.Run(experiment.Config{
		Cores: 2, Tasks: 6, SetsPerPoint: 5, Seed: 9,
		Utilizations: []float64{1.2, 1.5},
		Algorithms:   []partition.Algorithm{partition.FFD, partition.TS},
		Model:        overhead.PaperModel(),
	})
	var buf bytes.Buffer
	if err := SweepResultJSON(res).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back api.SweepResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Cores != 2 || back.SetsPerPoint != 5 || len(back.Series) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	for si, s := range back.Series {
		if s.Algorithm != res.Series[si].Algorithm {
			t.Fatalf("series %d: %q != %q", si, s.Algorithm, res.Series[si].Algorithm)
		}
		for pi, p := range s.Points {
			want := res.Series[si].Points[pi]
			if p.Accepted != want.Accepted || p.Total != want.Total || p.Ratio != want.Ratio {
				t.Fatalf("cell %d/%d: %+v != %+v", si, pi, p, want)
			}
			if p.PerCoreUtilization != p.TotalUtilization/2 {
				t.Fatalf("per-core utilization not derived: %+v", p)
			}
		}
	}
	if back.Admission.Probes != res.Admission.Probes {
		t.Fatalf("admission: %+v != %+v", back.Admission, res.Admission)
	}
}

// TestAdmissionJSONRates checks the derived-rate fields of the wire
// counters a sweep result embeds.
func TestAdmissionJSONRates(t *testing.T) {
	s := analysis.AdmissionStats{Probes: 10, CoreTests: 8, VerdictHits: 2, FPSolves: 4, FPIterations: 12, WarmStarts: 1}
	j := s.Wire()
	if j.CacheHitRate != 0.25 || j.MeanFPIterations != 3 || j.WarmStartRate != 0.25 {
		t.Fatalf("rates: %+v", j)
	}
}
