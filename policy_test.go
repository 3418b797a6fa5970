package repro

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// allAlgorithms is the full roster the paper's evaluation touches:
// the six fixed-priority partitioners/splitters and the three EDF
// ones. Every one must admit through the shared Analyzer interface.
func allAlgorithms() []partition.Algorithm {
	return []partition.Algorithm{
		partition.TS, partition.FFD, partition.WFD, partition.BFD,
		partition.SPA1, partition.SPA2,
		partition.WM, partition.EDFFFD, partition.EDFWFD,
	}
}

// Every algorithm declares a policy, stamps its assignments with it,
// and those assignments re-pass the policy's analyzer — the admission
// contract of the unified layer.
func TestAllAlgorithmsAdmitThroughAnalyzer(t *testing.T) {
	model := overhead.PaperModel()
	for _, alg := range allAlgorithms() {
		admitted := 0
		for seed := int64(1); seed <= 10; seed++ {
			set := taskgen.New(taskgen.Config{N: 10, TotalUtilization: 2.9, Seed: seed}).Next()
			a, err := alg.Partition(set, 4, model)
			if errors.Is(err, partition.ErrUnschedulable) {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg.Name(), seed, err)
			}
			admitted++
			if a.Policy != alg.Policy() {
				t.Fatalf("%s: assignment policy %v, algorithm declares %v", alg.Name(), a.Policy, alg.Policy())
			}
			an := analysis.ForPolicy(alg.Policy())
			if an.Policy() != alg.Policy() {
				t.Fatalf("%s: analyzer policy mismatch", alg.Name())
			}
			if !an.Schedulable(a, model) {
				t.Fatalf("%s seed %d: admitted assignment fails its own analyzer", alg.Name(), seed)
			}
			if !analysis.Schedulable(a, model) {
				t.Fatalf("%s seed %d: policy-dispatched Schedulable disagrees", alg.Name(), seed)
			}
		}
		if admitted == 0 {
			t.Fatalf("%s admitted nothing at U=2.9 on 4 cores; grid too hard", alg.Name())
		}
	}
}

// Cross-policy soundness: every assignment any algorithm admits via
// the Analyzer runs miss-free in the kernel simulator under the
// paper's overhead model — the end-to-end guarantee the analysis
// exists to provide.
func TestAnalyzerAdmissionImpliesZeroMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	model := overhead.PaperModel()
	for _, alg := range allAlgorithms() {
		for seed := int64(20); seed < 26; seed++ {
			set := taskgen.New(taskgen.Config{N: 8, TotalUtilization: 3.1, Seed: seed}).Next()
			a, err := alg.Partition(set, 4, model)
			if err != nil {
				continue
			}
			res, err := sched.Run(a, sched.Config{Model: model, Horizon: 2 * timeq.Second})
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg.Name(), seed, err)
			}
			if !res.Schedulable() {
				t.Fatalf("%s seed %d: analyzer-admitted assignment missed %d deadlines; first: %v",
					alg.Name(), seed, len(res.Misses), res.Misses[0])
			}
		}
	}
}

// The policy-dispatched analysis.Schedulable agrees with the EDF
// analyzer called directly on an EDF assignment.
func TestDeprecatedWrappersAgree(t *testing.T) {
	model := overhead.PaperModel()
	set := taskgen.New(taskgen.Config{N: 10, TotalUtilization: 3.0, Seed: 4}).Next()
	if a, err := partition.TS.Partition(set.Clone(), 4, model); err == nil {
		if !analysis.Schedulable(a, model) {
			t.Fatal("FP assignment must pass unified Schedulable")
		}
	}
	if a, err := partition.WM.Partition(set.Clone(), 4, model); err == nil {
		if !analysis.Schedulable(a, model) {
			t.Fatal("EDF assignment must pass unified Schedulable (policy dispatch)")
		}
		if !analysis.EDFDemand.Schedulable(a, model) {
			t.Fatal("EDF assignment must pass EDFDemand.Schedulable")
		}
	}
}

// The library pipeline end to end: generate, split with FP-TS under the
// paper's overheads, re-check the assignment, and simulate it miss-free.
func TestEndToEndPipeline(t *testing.T) {
	set := taskgen.New(taskgen.Config{N: 12, TotalUtilization: 3.0, Seed: 11}).Next()
	a, err := partition.TS.Partition(set, 4, overhead.PaperModel())
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if !analysis.Schedulable(a, overhead.PaperModel()) {
		t.Fatal("returned assignment fails Schedulable")
	}
	res, err := sched.Run(a, sched.Config{Model: overhead.PaperModel(), Horizon: 2 * timeq.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable() {
		t.Fatalf("simulation missed deadlines: %v", res.Misses)
	}
}
