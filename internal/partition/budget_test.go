package partition

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// bisectBudget is the search the split algorithms ran before the hint,
// kept as the reference: probe the cap, then bisect the whole 1 µs
// grid below it. FP-TS gave up after the cap probe when no core was
// left for a remainder. It returns the budget and the probes it took.
func bisectBudget(s *budgetSearch) (timeq.Time, int) {
	probes := 0
	fits := func(b timeq.Time) bool {
		probes++
		return s.fits(b)
	}
	if fits(s.cap) {
		return s.cap, probes
	}
	if s.q.whole == wholeRefuse && s.q.next < 0 {
		return 0, probes
	}
	loUS, hiUS := int64(1), int64(s.cap/timeq.Microsecond)
	if hiUS < 1 || !fits(timeq.Microsecond) {
		return 0, probes
	}
	for loUS < hiUS {
		mid := (loUS + hiUS + 1) / 2
		if fits(us(mid)) {
			loUS = mid
		} else {
			hiUS = mid - 1
		}
	}
	return us(loUS), probes
}

// splitAlgorithms are the algorithms that size split parts by search.
func splitAlgorithms() []Algorithm { return []Algorithm{SPA1, SPA2, TS, TSNoBoost, WM} }

// observeSearches runs fn with obs seeing every budget search.
func observeSearches(t testing.TB, obs func(*budgetSearch), fn func()) {
	t.Helper()
	searchObserver = obs
	defer func() { searchObserver = nil }()
	fn()
}

// sweepSets draws perPoint task sets of the sweep's 16 tasks at every
// point of the Section-4 grid for the given core count (the paper: 4).
func sweepSets(seed int64, perPoint, cores int) []*task.Set {
	const tasks = 16
	var sets []*task.Set
	for pm := 600; pm <= 975; pm += 25 {
		u := float64(pm) / 1000 * float64(cores)
		for i := 0; i < perPoint; i++ {
			sets = append(sets, taskgen.New(taskgen.Config{N: tasks, TotalUtilization: u, Seed: seed + int64(pm)*1000 + int64(i)}).Next())
		}
	}
	return sets
}

// partitionAll runs every algorithm on every set under both models
// through one arena, the way a sweep worker does.
func partitionAll(t testing.TB, algs []Algorithm, sets []*task.Set, cores int) {
	t.Helper()
	ar := NewArena()
	for _, model := range []*overhead.Model{overhead.Zero(), overhead.PaperModel()} {
		for _, s := range sets {
			for _, alg := range algs {
				if _, err := alg.PartitionOpts(s, cores, model, Options{Arena: ar}); err != nil && !errors.Is(err, ErrUnschedulable) {
					t.Fatalf("%s: %v", alg.Name(), err)
				}
			}
		}
	}
}

// TestSplitBudgetMatchesBisection replays every budget search of a
// seeded sweep by the reference bisection, on the same context state,
// and requires the same budget. Every window of an EDF-WM split is
// fixed before its search, so equal budgets make equal splits.
func TestSplitBudgetMatchesBisection(t *testing.T) {
	perPoint := 6
	if testing.Short() {
		perPoint = 2
	}
	var searches, hinted int
	observeSearches(t, func(s *budgetSearch) {
		searches++
		if s.hinted {
			hinted++
		}
		if want, _ := bisectBudget(s); s.got != want {
			t.Errorf("search on core %d of task %v (cap %v, hint %v): got %v, bisection %v", s.q.core, s.q.t, s.cap, s.hint, s.got, want)
		}
	}, func() { partitionAll(t, splitAlgorithms(), sweepSets(1, perPoint, 4), 4) })
	if hinted < 50 {
		t.Fatalf("degenerate sweep: %d searches, %d past the cap probe", searches, hinted)
	}
}

// TestSplitHintExactOnForwardChains requires SPA's hint to be the
// search's answer: an SPA fill only splits forward, so no jitter on the
// core it sizes a part for depends on the part's budget.
func TestSplitHintExactOnForwardChains(t *testing.T) {
	perPoint := 6
	if testing.Short() {
		perPoint = 2
	}
	var hinted int
	observeSearches(t, func(s *budgetSearch) {
		if !s.hinted {
			return
		}
		hinted++
		if got := hintOnGrid(s); got != s.got {
			t.Errorf("SPA search on core %d of task %v (cap %v): hint %v, answer %v", s.q.core, s.q.t, s.cap, s.hint, s.got)
		}
	}, func() { partitionAll(t, []Algorithm{SPA1, SPA2}, sweepSets(2, perPoint, 4), 4) })
	if hinted < 50 {
		t.Fatalf("degenerate sweep: %d hinted searches", hinted)
	}
}

// hintOnGrid is the budget the hint names: the cap's grid point at most.
func hintOnGrid(s *budgetSearch) timeq.Time {
	return min(s.hint, s.cap) / timeq.Microsecond * timeq.Microsecond
}

// edgeProber is a synthetic monotone part: budgets up to edge fit.
type edgeProber struct{ edge, hint timeq.Time }

func (p edgeProber) fits(b timeq.Time) bool           { return b <= p.edge }
func (p edgeProber) budgetHint(timeq.Time) timeq.Time { return p.hint }

// TestBudgetSearchConfirmBounds runs the search against synthetic
// monotone parts with every kind of hint, right or wrong: the answer is
// the edge on the grid, an exact hint costs the cap probe and two
// confirms, and no search takes more than two probes past the
// reference bisection of the whole grid (1 + 1 + ⌈log₂ 999⌉ here).
func TestBudgetSearchConfirmBounds(t *testing.T) {
	const capUS = 1000
	for _, edge := range []timeq.Time{0, 999, us(1), us(2), us(499) + 7, us(998), us(999) + 999} {
		for _, hint := range []timeq.Time{-5, 0, us(1), us(2), us(300), us(499), us(499) + 500, us(500), us(998), us(999), us(1000), us(5000)} {
			r := searchRecord{cap: us(capUS)}
			r.run(edgeProber{edge: edge, hint: hint})
			want := edge / timeq.Microsecond * timeq.Microsecond
			if r.got != want {
				t.Errorf("edge %v, hint %v: got %v, want %v", edge, hint, r.got, want)
			}
			if exact := min(hint, r.cap)/timeq.Microsecond == want/timeq.Microsecond && want > 0; exact && (r.probes > 3 || r.fellBack) {
				t.Errorf("edge %v, exact hint %v: %d probes, fell back %v", edge, hint, r.probes, r.fellBack)
			}
			if r.probes > 2+2+10 {
				t.Errorf("edge %v, hint %v: %d probes", edge, hint, r.probes)
			}
		}
	}
}

// FuzzSplitBudget partitions small random sets with every splitting
// algorithm, on 2 to 4 cores under either model, and requires every
// budget search to answer what the reference bisection answers.
//
// Both searches assume feasibility is monotone in the budget, and both
// return an edge of it: a budget that fits with the next grid point
// failing (or the cap). Where feasibility is not monotone they can pick
// different edges; the fuzz accepts that only with the witness in hand
// — the lower answer + 1 µs fails while the higher answer fits. The
// seed nonmonotone_edf_busy_period_cap holds such a core: an EDF-WM
// part at inflated utilization ≈ 1, where the busy period converges
// within its iteration cap at 9.327 ms and 9.329 ms but not at
// 9.328 ms.
func FuzzSplitBudget(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(10), uint16(3600), false)
	f.Add(int64(7), uint8(2), uint8(5), uint16(1900), true)
	f.Add(int64(42), uint8(3), uint8(8), uint16(2900), true)
	f.Fuzz(func(t *testing.T, seed int64, cores, n uint8, milliU uint16, paper bool) {
		m := 2 + int(cores)%3
		tasks := m + 1 + int(n)%12 // more tasks than cores: ΣU < m is drawable
		// Between 0.5 and 1 per core: where splits happen.
		u := float64(m) * (0.5 + float64(milliU%500)/1000)
		set := taskgen.New(taskgen.Config{N: tasks, TotalUtilization: u, Seed: seed}).Next()
		model := overhead.Zero()
		if paper {
			model = overhead.PaperModel()
		}
		observeSearches(t, func(s *budgetSearch) {
			want, _ := bisectBudget(s)
			if s.got == want {
				return
			}
			lo, hi := min(s.got, want), max(s.got, want)
			if s.fits(lo+timeq.Microsecond) || !s.fits(hi) {
				t.Fatalf("search on core %d (cap %v, hint %v): got %v, bisection %v", s.q.core, s.cap, s.hint, s.got, want)
			}
			t.Logf("feasibility not monotone on core %d: %v fails, %v fits (search %v, bisection %v)", s.q.core, lo+timeq.Microsecond, hi, s.got, want)
		}, func() {
			for _, alg := range splitAlgorithms() {
				if _, err := alg.Partition(set, m, model); err != nil && !errors.Is(err, ErrUnschedulable) {
					t.Fatalf("%s: %v", alg.Name(), err)
				}
			}
		})
	})
}

// BenchmarkSplitBudgetSearch runs the sweep's shape (4 cores, 16 tasks,
// the 16-point grid, nine algorithms under both models, arenas on) and
// reports what the budget searches past the cap probe cost: probes per
// search for the search and for the reference bisection replayed on the
// same states, the share of searches whose hint was the answer, and the
// share whose confirm failed and bisected.
func BenchmarkSplitBudgetSearch(b *testing.B) {
	sets := sweepSets(3, 2, 4)
	var searches, probes, exact, fellBack, refProbes int
	b.ResetTimer()
	observeSearches(b, func(s *budgetSearch) {
		if !s.hinted {
			return
		}
		searches++
		probes += s.probes
		if hintOnGrid(s) == s.got {
			exact++
		}
		if s.fellBack {
			fellBack++
		}
	}, func() {
		for i := 0; i < b.N; i++ {
			partitionAll(b, allNineAlgorithms(), sets, 4)
		}
	})
	b.StopTimer()
	observeSearches(b, func(s *budgetSearch) {
		if s.hinted {
			_, n := bisectBudget(s)
			refProbes += n
		}
	}, func() { partitionAll(b, allNineAlgorithms(), sets, 4) })
	if searches == 0 {
		b.Fatal("no search got past the cap probe")
	}
	per := float64(searches) / float64(b.N)
	b.ReportMetric(float64(probes)/float64(searches), "probes/search")
	b.ReportMetric(float64(refProbes)/per, "ref_probes/search")
	b.ReportMetric(float64(exact)/float64(searches), "hint_exact_frac")
	b.ReportMetric(float64(fellBack)/float64(searches), "fallback_frac")
}

// TestBudgetSearchAllocFree guards the search's steady state: every
// probe rebuilds the one scratch split, and the hint and the probes run
// on the context's recycled scratch, so a search allocates nothing.
func TestBudgetSearchAllocFree(t *testing.T) {
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		s := newSet(t, [2]int64{4, 10}, [2]int64{5, 25}, [2]int64{6, 12})
		a := task.NewAssignment(2)
		a.Policy = pol
		ctx := analysis.ForPolicy(pol).NewContext(a, overhead.PaperModel())
		ctx.Place(s.Tasks[0], 0)
		ctx.Place(s.Tasks[1], 0)
		big := s.Tasks[2]
		q := partQuery{ctx: ctx, t: big, whole: wholeRefuse, core: 0, next: 1, remaining: big.WCET}
		limit := q.remaining
		if pol == task.EDF {
			q.whole, q.window = wholeSplit, big.EffectiveDeadline()/2
			limit = min(limit, q.window)
		}
		bs := &budgetSearch{}
		bs.largest(q, limit)
		if !bs.hinted || bs.got == 0 {
			t.Fatalf("%v: degenerate search %+v", pol, bs.searchRecord)
		}
		if n := testing.AllocsPerRun(20, func() { bs.largest(q, limit) }); n != 0 {
			t.Errorf("%v: %.1f allocations per search", pol, n)
		}
	}
}
