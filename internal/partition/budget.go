package partition

import (
	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/timeq"
)

// The split-part budget search shared by SPA, FP-TS and EDF-WM. Each
// sizes a part as the largest budget on a 1 µs grid its core admits. A
// grid (rather than raw nanoseconds) makes the search land on the
// critical value exactly when task parameters are round, so knife-edge
// sets are not lost to search slack. Feasibility is monotone in the
// budget (a larger part only adds interference), and the search relies
// on it, as the bisection it replaced did. The one known exception is
// an EDF core at inflated utilization ≈ 1, where the busy period's
// iteration cap decides (see FuzzSplitBudget).
//
// The search asks the context for the answer first (Context.SplitHint)
// and then confirms it: a passing probe at the hint b̂ and a failing one
// at b̂ + 1 µs prove b̂ is the largest fitting budget, by monotonicity, so
// every verdict still comes from a probe and the hint only decides how
// many are needed. A failed confirm bisects the half-range it proved —
// above b̂ when b̂ fits, below it when it does not — so a wrong hint costs
// at most two probes more than a bisection of the whole range.

// wholeMode is how a search probes a final part with no prior parts,
// which is no split at all.
type wholeMode uint8

const (
	wholeRefuse wholeMode = iota // SPA, FP-TS: refused, whole placement already failed
	wholeSplit                   // EDF-WM: a one-part windowed split
)

// partQuery names the part a search sizes: the next part of t after
// prior, on core, with remaining budget left to place. A non-final
// part is probed with the remainder on core next, so its migration
// flags — and so its overhead charges — are those it will have; the
// remainder's own schedulability is decided when it is placed.
type partQuery struct {
	ctx       analysis.Context
	t         *task.Task
	noBoost   bool
	whole     wholeMode
	prior     []task.Part
	priorWins []timeq.Time // the prior parts' windows (EDF-WM)
	window    timeq.Time   // the window of the part and its remainder; 0: none
	core      int
	next      int // the remainder's core; -1: there is none
	remaining timeq.Time
}

// budgetSearch runs the searches of one Partition call. It owns the
// tentative split every probe rebuilds in place: a context drops a
// probed split at Rollback, so only the split AddSplit keeps needs an
// allocation of its own.
type budgetSearch struct {
	q partQuery
	searchRecord

	sp      task.Split
	parts   []task.Part
	windows []timeq.Time
}

// prober is what a search asks about the part it sizes.
type prober interface {
	// fits probes the part at budget b.
	fits(b timeq.Time) bool
	// budgetHint guesses the largest b ≤ cap that fits.
	budgetHint(cap timeq.Time) timeq.Time
}

// searchRecord is one search and what it did.
type searchRecord struct {
	cap, hint, got   timeq.Time
	probes           int
	hinted, fellBack bool
}

// searchObserver, when set, sees every finished search. Tests and
// benchmarks use it to count probes and to replay a search by
// bisection; the partitioners never read what it records.
var searchObserver func(*budgetSearch)

// newBudgetSearch returns the call's search scratch: the arena's when
// one is attached, so a sweep allocates none per call.
func (o Options) newBudgetSearch() *budgetSearch {
	if o.Arena != nil {
		return &o.Arena.search
	}
	return new(budgetSearch)
}

// largest returns the largest budget b ≤ limit on the grid for which
// the query's core admits the part: limit itself when it fits, 0 when
// not even 1 µs does.
func (s *budgetSearch) largest(q partQuery, limit timeq.Time) timeq.Time {
	s.q = q
	s.searchRecord = searchRecord{cap: limit}
	s.run(s)
	if searchObserver != nil {
		searchObserver(s)
	}
	return s.got
}

// run searches the grid below r.cap: hint, confirm, and bisect only
// the half-range a failed confirm proved.
func (r *searchRecord) run(p prober) {
	fit := func(b timeq.Time) bool {
		r.probes++
		return p.fits(b)
	}
	r.got = r.cap
	if fit(r.cap) {
		return
	}
	r.got = 0
	top := int64(r.cap / timeq.Microsecond)
	if top < 1 {
		return
	}
	r.hinted = true
	r.hint = p.budgetHint(r.cap)
	b := max(int64(min(r.hint, r.cap)/timeq.Microsecond), 1)
	loUS, hiUS := int64(0), b-1
	if fit(us(b)) {
		if b == top || !fit(us(b+1)) {
			r.got = us(b)
			return
		}
		loUS, hiUS = b+1, top
	}
	// Bisect for the largest fitting budget in [loUS, hiUS]; loUS fits
	// or is 0.
	for loUS < hiUS {
		r.fellBack = true
		mid := (loUS + hiUS + 1) / 2
		if fit(us(mid)) {
			loUS = mid
		} else {
			hiUS = mid - 1
		}
	}
	r.got = us(loUS)
}

func us(k int64) timeq.Time { return timeq.Time(k) * timeq.Microsecond }

// fits probes the query's core with the part at budget b.
func (s *budgetSearch) fits(b timeq.Time) bool {
	q := &s.q
	final := b >= q.remaining
	if final && len(q.prior) == 0 {
		if q.whole == wholeRefuse {
			return false
		}
	}
	if !final && q.next < 0 {
		return false
	}
	ok := q.ctx.TrySplit(s.tentative(b, !final), q.core)
	q.ctx.Rollback()
	return ok
}

// budgetHint asks the context for the part's budget, the part probed
// as a non-final one at the cap.
func (s *budgetSearch) budgetHint(cap timeq.Time) timeq.Time {
	if s.q.next < 0 {
		return 0
	}
	return s.q.ctx.SplitHint(s.tentative(cap, true), s.q.core)
}

// tentative rebuilds the scratch split: the prior parts, the part at
// budget b and, with rest, the remainder on the query's next core.
func (s *budgetSearch) tentative(b timeq.Time, rest bool) *task.Split {
	q := &s.q
	s.parts = append(append(s.parts[:0], q.prior...), task.Part{Core: q.core, Budget: b})
	if rest {
		s.parts = append(s.parts, task.Part{Core: q.next, Budget: q.remaining - b})
	}
	s.sp = task.Split{Task: q.t, Parts: s.parts, NoBoost: q.noBoost}
	if q.window > 0 {
		s.windows = append(s.windows[:0], q.priorWins...)
		for len(s.windows) < len(s.parts) {
			s.windows = append(s.windows, q.window)
		}
		s.sp.Windows = s.windows
	}
	return &s.sp
}
