package telemetry

import (
	"math"
	"strconv"
	"strings"
)

// HistogramSnapshot is one histogram series decoded from Prometheus
// text exposition — enough to answer quantile questions at bucket
// resolution. Used by consumers that read percentiles off a scraped
// /metrics payload (the benchmark module); it is a reader for the
// format WritePrometheus emits, not a general Prometheus parser.
type HistogramSnapshot struct {
	// UpperBounds holds each bucket's le value in exposition order,
	// ending with +Inf; CumCounts the matching cumulative counts.
	UpperBounds []float64
	CumCounts   []uint64
	Sum         float64
	Count       uint64
}

// Quantile returns the upper bound of the bucket containing quantile
// q (0 < q <= 1), NaN when the histogram is empty. Resolution is the
// bucket grid: the true value lies between the previous bound and the
// returned one.
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.UpperBounds) == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	for i, c := range h.CumCounts {
		if c >= rank {
			return h.UpperBounds[i]
		}
	}
	return h.UpperBounds[len(h.UpperBounds)-1]
}

// ExtractHistogram decodes the histogram series of family whose
// label set contains labelMatch (e.g. `path="read"`; empty matches
// any series) from Prometheus text exposition. Returns nil when the
// family or series is absent or malformed.
func ExtractHistogram(expo []byte, family, labelMatch string) *HistogramSnapshot {
	var h HistogramSnapshot
	seen := false
	for _, line := range strings.Split(string(expo), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, value, ok := splitExpoLine(line)
		if !ok || !strings.HasPrefix(name, family) {
			continue
		}
		suffix := name[len(family):]
		if labelMatch != "" && !strings.Contains(labels, labelMatch) {
			continue
		}
		switch suffix {
		case "_bucket":
			le, okLE := labelValue(labels, "le")
			if !okLE {
				return nil
			}
			var ub float64
			if le == "+Inf" {
				ub = math.Inf(1)
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return nil
				}
				ub = f
			}
			c, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil
			}
			h.UpperBounds = append(h.UpperBounds, ub)
			h.CumCounts = append(h.CumCounts, c)
			seen = true
		case "_sum":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil
			}
			h.Sum = f
		case "_count":
			c, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil
			}
			h.Count = c
		}
	}
	if !seen {
		return nil
	}
	return &h
}

// splitExpoLine splits one sample line into name, raw label body
// (without braces) and value text.
func splitExpoLine(line string) (name, labels, value string, ok bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", "", false
	}
	left, value := line[:sp], line[sp+1:]
	if i := strings.IndexByte(left, '{'); i >= 0 {
		if !strings.HasSuffix(left, "}") {
			return "", "", "", false
		}
		return left[:i], left[i+1 : len(left)-1], value, true
	}
	return left, "", value, true
}
