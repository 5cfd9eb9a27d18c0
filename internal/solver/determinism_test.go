package solver

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/montecarlo"
	"caribou/internal/region"
)

// solveWith runs a full 24-hour solve over the 6-stage chain (4^6 = 4096
// plans, so every hour takes the HBSS path) with the given worker count.
func solveWith(t *testing.T, workers int) (dag.HourlyPlans, []Result) {
	t.Helper()
	in := chainInputs(t, 6)
	s, err := New(Config{
		Inputs:    in,
		Estimator: montecarlo.New(in, carbon.BestCase(), 42),
		Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
		Seed:      42,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	plans, results, err := s.SolveHourly(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	return plans, results
}

func assertIdenticalSolves(t *testing.T, aPlans, bPlans dag.HourlyPlans, aRes, bRes []Result) {
	t.Helper()
	for h := 0; h < 24; h++ {
		if !aPlans[h].Equal(bPlans[h]) {
			t.Errorf("hour %d plans diverge: %v vs %v", h, aPlans[h], bPlans[h])
		}
		if *aRes[h].Estimate != *bRes[h].Estimate {
			t.Errorf("hour %d estimates diverge: %+v vs %+v", h, aRes[h].Estimate, bRes[h].Estimate)
		}
	}
}

// TestSolveHourlyDeterministicAcrossWorkerCounts is the central guarantee
// of the parallel search: a serial solve (Workers=1) and a heavily
// fanned-out solve (Workers=8) of the same seed produce byte-identical
// plans and estimates for all 24 hours.
func TestSolveHourlyDeterministicAcrossWorkerCounts(t *testing.T) {
	serialPlans, serialRes := solveWith(t, 1)
	parallelPlans, parallelRes := solveWith(t, 8)
	assertIdenticalSolves(t, serialPlans, parallelPlans, serialRes, parallelRes)
}

// TestSolveHourlyDeterministicAcrossGOMAXPROCS re-runs the parallel solve
// under GOMAXPROCS=1 and GOMAXPROCS=8: scheduling differences must not
// leak into results.
func TestSolveHourlyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	onePlans, oneRes := solveWith(t, 8)
	runtime.GOMAXPROCS(8)
	eightPlans, eightRes := solveWith(t, 8)
	runtime.GOMAXPROCS(prev)
	assertIdenticalSolves(t, onePlans, eightPlans, oneRes, eightRes)
}

// TestSolveDeterministicAcrossEvalModes is the bit-identity grid: worker
// counts 1 and 8 crossed with every evaluation mode — batched tape sweeps
// with exact pruning (the default), per-plan tape replay (nobatch), and
// the untaped reference estimator — must all produce exactly the same
// 24 hourly plans and bit-identical estimates. Each mode is defined as a
// pure reorganization of the reference arithmetic (batching shares column
// loads, pruning only abandons candidates a bound proves rejected), and
// this test is the contract.
func TestSolveDeterministicAcrossEvalModes(t *testing.T) {
	in := chainInputs(t, 6)
	modes := []struct {
		name  string
		apply func(*Config)
	}{
		{"batch", func(*Config) {}},
		{"nobatch", func(c *Config) { c.NoBatchEval = true }},
		{"untaped", func(c *Config) { c.UntapedEstimates = true }},
	}
	solve := func(workers int, apply func(*Config)) (dag.HourlyPlans, []Result) {
		cfg := Config{
			Inputs:    in,
			Estimator: montecarlo.New(in, carbon.BestCase(), 42),
			Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
			Seed:      42,
			Workers:   workers,
		}
		apply(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans, results, err := s.SolveHourly(t0, t0)
		if err != nil {
			t.Fatal(err)
		}
		return plans, results
	}
	refPlans, refRes := solve(1, modes[0].apply)
	for _, workers := range []int{1, 8} {
		for _, m := range modes {
			if workers == 1 && m.name == "batch" {
				continue // the reference itself
			}
			plans, res := solve(workers, m.apply)
			t.Run(fmt.Sprintf("workers=%d_mode=%s", workers, m.name), func(t *testing.T) {
				assertIdenticalSolves(t, refPlans, plans, refRes, res)
			})
		}
	}
}

// TestParallelSolveOneMatchesSerial covers the single-instant entry point
// (exhaustive path: 4^2 = 16 plans) and, with 6 stages, the HBSS path.
func TestParallelSolveOneMatchesSerial(t *testing.T) {
	for _, n := range []int{2, 6} {
		in := chainInputs(t, n)
		var results [2]Result
		for i, workers := range []int{1, 8} {
			s, err := New(Config{
				Inputs:    in,
				Estimator: montecarlo.New(in, carbon.BestCase(), 7),
				Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
				Seed:      7,
				Workers:   workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			results[i], err = s.SolveOne(t0, t0)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !results[0].Plan.Equal(results[1].Plan) {
			t.Errorf("n=%d: serial plan %v != parallel plan %v", n, results[0].Plan, results[1].Plan)
		}
		if *results[0].Estimate != *results[1].Estimate {
			t.Errorf("n=%d: estimates diverge", n)
		}
	}
}

// TestParallelSolveRaceClean exists to put the fan-out — concurrent hour
// coordinators, the shared memo, and the evaluation semaphore — under the
// race detector (`make verify` runs this package with -race).
func TestParallelSolveRaceClean(t *testing.T) {
	in := chainInputs(t, 5)
	s, err := New(Config{
		Inputs:    in,
		Estimator: montecarlo.New(in, carbon.BestCase(), 3),
		Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
		Seed:      3,
		Workers:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SolveHourly(t0, t0); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSpaceExactAndSaturating checks the overflow-safe |R|^|N|
// computation: 6^20 = 3 656 158 440 062 976 must come out exactly, and a
// 25-stage × 6-region space (6^25 > 2^63) must saturate at MaxInt64
// rather than wrap or round.
func TestSearchSpaceExactAndSaturating(t *testing.T) {
	build := func(nodes int) *Solver {
		regions := make([]region.ID, 6)
		for i := range regions {
			regions[i] = region.ID(rune('a' + i))
		}
		s := &Solver{eligible: map[dag.NodeID][]region.ID{}}
		for i := 0; i < nodes; i++ {
			id := dag.NodeID(rune('a' + i%26))
			id = dag.NodeID(string(id) + string(rune('0'+i/26)))
			s.order = append(s.order, id)
			s.eligible[id] = regions
		}
		return s
	}
	if got := build(20).searchSpace(); got != 3656158440062976 {
		t.Errorf("6^20 = %d, want 3656158440062976", got)
	}
	if got := build(25).searchSpace(); got != math.MaxInt64 {
		t.Errorf("6^25 should saturate at MaxInt64, got %d", got)
	}
	empty := &Solver{order: []dag.NodeID{"x"}, eligible: map[dag.NodeID][]region.ID{"x": nil}}
	if got := empty.searchSpace(); got != 0 {
		t.Errorf("empty eligibility should give 0, got %d", got)
	}
}
