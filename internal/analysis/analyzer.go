package analysis

import (
	"repro/internal/overhead"
	"repro/internal/task"
)

// Analyzer is the policy-generic admission interface: one
// schedulability test an assignment (or a single provisional core of
// one) can be admitted through, independent of whether the underlying
// mathematics is fixed-priority response-time analysis or EDF
// processor demand. Partitioning algorithms declare their policy and
// admit every placement through the Analyzer for it, so the whole
// pipeline — bin-packers, splitters, experiment driver — shares one
// admission surface (the paper's "shared overhead-aware admission
// test").
type Analyzer interface {
	// Policy identifies the dispatching discipline the test models.
	Policy() task.Policy
	// Schedulable runs the full admission test on a complete
	// assignment under the overhead model (nil means zero overheads).
	Schedulable(a *task.Assignment, m *overhead.Model) bool
	// CoreSchedulable is the stateless incremental admission test: it
	// probes only core c of a possibly provisional assignment, with
	// any cross-core coupling (split chains' release jitters) resolved
	// across the whole assignment but failures elsewhere not vetoing
	// the probe. Packing loops that issue many probes against one
	// evolving assignment should use NewContext instead, which gives
	// the same decisions at a fraction of the cost.
	CoreSchedulable(a *task.Assignment, c int, m *overhead.Model) bool
	// NewContext opens a stateful admission context over the
	// assignment: the incremental counterpart of CoreSchedulable that
	// caches per-core entity sets and tables and memoizes per-core
	// verdicts, invalidating only the cores a mutation touches. Decisions are
	// bit-identical to the stateless path. The context owns all
	// mutations of a for its lifetime.
	NewContext(a *task.Assignment, m *overhead.Model) Context
}

// The two concrete analyzers the paper's evaluation needs.
var (
	// FixedPriorityRTA is the overhead-aware exact response-time
	// analysis with split-chain jitter resolution (Sections 3–4).
	FixedPriorityRTA Analyzer = fpAnalyzer{}
	// EDFDemand is the overhead-aware processor-demand criterion with
	// EDF-WM deadline windows (the paper's Section 2 EDF extension).
	EDFDemand Analyzer = edfAnalyzer{}
)

// ForPolicy returns the Analyzer for a scheduling policy.
func ForPolicy(p task.Policy) Analyzer {
	if p == task.EDF {
		return EDFDemand
	}
	return FixedPriorityRTA
}

// Schedulable dispatches the full admission test on the assignment's
// own policy.
func Schedulable(a *task.Assignment, m *overhead.Model) bool {
	return ForPolicy(a.Policy).Schedulable(a, overhead.Normalize(m))
}

type fpAnalyzer struct{}

func (fpAnalyzer) Policy() task.Policy { return task.FixedPriority }

func (fpAnalyzer) Schedulable(a *task.Assignment, m *overhead.Model) bool {
	m = overhead.Normalize(m)
	return BuildCores(a, m).Schedulable(m)
}

func (fpAnalyzer) CoreSchedulable(a *task.Assignment, c int, m *overhead.Model) bool {
	m = overhead.Normalize(m)
	if len(a.Splits) == 0 {
		// No chains, no cross-core coupling: probe core c alone.
		return BuildCore(a, c, m).CoreSchedulable(m)
	}
	return BuildCores(a, m).SchedulableCore(c, m)
}

func (an fpAnalyzer) NewContext(a *task.Assignment, m *overhead.Model) Context {
	m = overhead.Normalize(m)
	return wrapChecked(newFPContext(an, a, m), m)
}

type edfAnalyzer struct{}

func (edfAnalyzer) Policy() task.Policy { return task.EDF }

func (edfAnalyzer) Schedulable(a *task.Assignment, m *overhead.Model) bool {
	m = overhead.Normalize(m)
	for _, sp := range a.Splits {
		if !sp.HasWindows() {
			return false // EDF requires window-split tasks
		}
	}
	for _, cs := range EDFBuildCores(a, m) {
		if !cs.EDFCoreSchedulable(m) {
			return false
		}
	}
	return true
}

func (edfAnalyzer) CoreSchedulable(a *task.Assignment, c int, m *overhead.Model) bool {
	m = overhead.Normalize(m)
	// Windows decouple the cores: build only the probed one.
	return EDFBuildCore(a, c, m).EDFCoreSchedulable(m)
}

func (an edfAnalyzer) NewContext(a *task.Assignment, m *overhead.Model) Context {
	m = overhead.Normalize(m)
	return wrapChecked(newEDFContext(an, a, m), m)
}
