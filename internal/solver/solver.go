// Package solver implements Caribou's Deployment Solver (§5.1): given the
// workflow DAG, compliance constraints, and the Metric Manager's learned
// model, it searches the |R|^|N| space of deployment plans for the one
// optimizing the developer's priority (carbon, cost, or latency) subject
// to QoS tolerances. The primary algorithm is Heuristic-Biased Stochastic
// Sampling (Alg. 1); exhaustive enumeration (for small spaces and as an
// ablation baseline) and coarse single-region selection are also provided.
// A full solve emits 24 plans, one per hour, to track diurnal carbon
// patterns.
//
// Each solve first compiles the montecarlo.Inputs into an immutable
// evaluation snapshot (montecarlo.Snapshot) and then searches over dense
// integer assignments: plan estimates become pure functions of
// (assignment, hour), which lets the search memoize them by (plan, hour)
// and fan evaluations — HBSS rounds, exhaustive enumeration, and the 24
// hourly solves — across a bounded worker pool while staying bit-identical
// to the serial search at any GOMAXPROCS.
package solver

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"caribou/internal/dag"
	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/telemetry"
)

// Priority is the developer's optimization objective (§8).
type Priority int

// Optimization priorities.
const (
	PriorityCarbon Priority = iota
	PriorityCost
	PriorityLatency
)

func (p Priority) String() string {
	switch p {
	case PriorityCarbon:
		return "carbon"
	case PriorityCost:
		return "cost"
	case PriorityLatency:
		return "latency"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// Limit is an optional relative tolerance against the home-region
// baseline, in percent. The zero value means unconstrained.
type Limit struct {
	Set bool
	Pct float64
}

// Tol returns a set limit.
func Tol(pct float64) Limit { return Limit{Set: true, Pct: pct} }

// Tolerances are the workflow-level QoS bounds from the deployment
// manifest (§8): each set limit caps the plan's tail (p95) metric at the
// home deployment's tail metric scaled by (1 + Pct/100).
type Tolerances struct {
	Latency Limit
	Cost    Limit
	Carbon  Limit
}

// Objective couples a priority with tolerances.
type Objective struct {
	Priority   Priority
	Tolerances Tolerances
}

// Config parameterizes a Solver.
type Config struct {
	Inputs     montecarlo.Inputs
	Estimator  *montecarlo.Estimator
	Objective  Objective
	Constraint region.Constraint // workflow-level compliance constraint
	// Regions restricts the candidate set (defaults to the full
	// catalogue).
	Regions []region.ID
	Seed    int64
	// MaxIterations caps HBSS iterations; 0 uses α = |N|·|R|·6
	// (Alg. 1). The paper adjusts α dynamically to fit Lambda's
	// 900-second limit; the cap plays that role here.
	MaxIterations int
	// Workers bounds concurrent plan evaluations: 0 uses
	// runtime.GOMAXPROCS(0), 1 forces a fully serial solve. Results are
	// identical for every value — per-iteration RNG streams and
	// order-independent estimate memoization make the search
	// deterministic at any parallelism.
	Workers int
	// UntapedEstimates routes plan evaluations through the reference
	// draw-per-sample path instead of replaying compiled sample tapes.
	// Results are bit-identical either way (asserted by the tape parity
	// tests); the switch exists for benchmarks and ablations.
	UntapedEstimates bool
	// NoBatchEval evaluates candidate plans one at a time instead of
	// through the batched multi-plan sweep with bound-based pruning
	// (montecarlo.EstimateBatch). Results are bit-identical either way —
	// surviving candidates replay the exact reference arithmetic, and
	// every pruned candidate is one the acceptance rule provably rejects
	// (re-evaluated in full when the proof's premise lapses) — asserted by
	// the solver mode grid and pruning property tests. Batch evaluation
	// sweeps tape columns, so UntapedEstimates implies it off.
	NoBatchEval bool
}

// EvalModes bundles the evaluation-path escape hatches (UntapedEstimates,
// NoBatchEval) so process-level tooling — caribou-eval's -eval-mode flag
// — can route every solve in a run through a reference path without
// threading new fields through each experiment constructor. All modes
// are bit-identical by construction; see DESIGN.md "Tape blocks" and
// "Batched replay & exact pruning".
type EvalModes struct {
	UntapedEstimates bool
	NoBatchEval      bool
}

// defaultEvalModes is ORed into the Config flags of every Solver built
// afterwards. Written once at process start (before any solver exists),
// read by New; deliberately not synchronized.
var defaultEvalModes EvalModes

// SetDefaultEvalModes selects the evaluation path for all subsequently
// constructed Solvers. Call once at process start, before building any
// environment; per-Config flags still apply on top.
func SetDefaultEvalModes(m EvalModes) { defaultEvalModes = m }

// Solver searches deployment plans.
type Solver struct {
	in   montecarlo.Inputs
	est  *montecarlo.Estimator
	obj  Objective
	cons region.Constraint
	seed int64
	// eligible[i] lists candidate regions for node order[i], already
	// filtered by merged workflow- and function-level constraints and
	// ranked later by the carbon heuristic.
	order    []dag.NodeID
	eligible map[dag.NodeID][]region.ID
	maxIter  int
	workers  int
	untaped  bool
	nobatch  bool

	tel solverTelemetry
}

// solverTelemetry holds instrument handles captured at construction; all
// fields are nil-safe no-ops when telemetry is off. Counters are atomic,
// so the parallel search increments them without extra locking — and they
// never feed back into the search, preserving bit-identical results.
type solverTelemetry struct {
	rec         *telemetry.Recorder
	solves      *telemetry.Counter
	hbssBatches *telemetry.Counter
	estimates   *telemetry.Counter
	memoHits    *telemetry.Counter
}

func newSolverTelemetry() solverTelemetry {
	rec := telemetry.Default()
	return solverTelemetry{
		rec:         rec,
		solves:      rec.Counter("solver.solves"),
		hbssBatches: rec.Counter("solver.hbss_batches"),
		estimates:   rec.Counter("solver.estimates"),
		memoHits:    rec.Counter("solver.memo_hits"),
	}
}

// Result is one evaluated plan.
type Result struct {
	Plan     dag.Plan
	Estimate *montecarlo.Estimate
}

// metricOf returns an estimate's value under the priority.
func metricOf(est *montecarlo.Estimate, p Priority) float64 {
	switch p {
	case PriorityCost:
		return est.CostMean
	case PriorityLatency:
		return est.LatencyMean
	default:
		return est.CarbonMean
	}
}

// Metric returns the result's value under the priority.
func (r Result) Metric(p Priority) float64 { return metricOf(r.Estimate, p) }

// New builds a solver, validating that every stage has at least one
// eligible region and that the home region satisfies all constraints (the
// fallback must always be deployable).
func New(cfg Config) (*Solver, error) {
	if cfg.Inputs == nil || cfg.Estimator == nil {
		return nil, fmt.Errorf("solver: Inputs and Estimator are required")
	}
	d := cfg.Inputs.DAG()
	cat := cfg.Inputs.Catalogue()
	candidates := cfg.Regions
	if len(candidates) == 0 {
		candidates = cat.IDs()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Solver{
		in:       cfg.Inputs,
		est:      cfg.Estimator,
		obj:      cfg.Objective,
		cons:     cfg.Constraint,
		seed:     cfg.Seed,
		order:    d.Nodes(),
		eligible: make(map[dag.NodeID][]region.ID, d.Len()),
		maxIter:  cfg.MaxIterations,
		workers:  workers,
		untaped:  cfg.UntapedEstimates || defaultEvalModes.UntapedEstimates,
		nobatch:  cfg.NoBatchEval || defaultEvalModes.NoBatchEval,
		tel:      newSolverTelemetry(),
	}
	for _, n := range s.order {
		node, _ := d.Node(n)
		merged := region.Merge(cfg.Constraint, node.Constraint)
		var elig []region.ID
		for _, id := range candidates {
			r, ok := cat.Get(id)
			if !ok {
				return nil, fmt.Errorf("solver: unknown candidate region %q", id)
			}
			if merged.Permits(r) {
				elig = append(elig, id)
			}
		}
		if len(elig) == 0 {
			return nil, fmt.Errorf("solver: stage %q has no eligible region", n)
		}
		s.eligible[n] = elig
	}
	return s, nil
}

// searchSpace returns |R|^|N| over per-node eligible sets, saturating at
// math.MaxInt64 with overflow-checked integer arithmetic (a float64
// product would silently reach +Inf for very large DAGs and lose exact
// counts long before that).
func (s *Solver) searchSpace() int64 {
	size := int64(1)
	for _, n := range s.order {
		k := int64(len(s.eligible[n]))
		if k == 0 {
			return 0
		}
		if size > math.MaxInt64/k {
			return math.MaxInt64
		}
		size *= k
	}
	return size
}

// violates reports whether est breaks any set tolerance against the home
// baseline (tail-case p95 comparison, §7.1).
func (s *Solver) violates(est, home *montecarlo.Estimate) bool {
	t := s.obj.Tolerances
	if t.Latency.Set && est.LatencyP95 > home.LatencyP95*(1+t.Latency.Pct/100) {
		return true
	}
	if t.Cost.Set && est.CostP95 > home.CostP95*(1+t.Cost.Pct/100) {
		return true
	}
	if t.Carbon.Set && est.CarbonP95 > home.CarbonP95*(1+t.Carbon.Pct/100) {
		return true
	}
	return false
}

// SolveOne finds the best plan for one instant using HBSS, or exhaustive
// enumeration when the search space is small enough that enumeration is
// cheaper than sampling.
func (s *Solver) SolveOne(at, now time.Time) (Result, error) {
	c, err := s.newSearch([]time.Time{at}, now)
	if err != nil {
		return Result{}, err
	}
	return c.solveHour(0)
}

// SolveHourly emits one plan per hour of the day starting at dayStart
// (§5.1: 24 plans per solve given sufficient carbon budget). The 24
// hourly solves share one compiled snapshot and one estimate memo and run
// concurrently up to the configured worker bound.
func (s *Solver) SolveHourly(dayStart, now time.Time) (dag.HourlyPlans, []Result, error) {
	sp := s.tel.rec.StartSpan("solver.solve_hourly",
		telemetry.Int("workers", int64(s.workers)),
		telemetry.Int("stages", int64(len(s.order))))
	defer sp.End()
	s.tel.solves.Inc()
	var plans dag.HourlyPlans
	base := dayStart.UTC().Truncate(time.Hour)
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = base.Add(time.Duration(h) * time.Hour)
	}
	c, err := s.newSearch(hours, now)
	if err != nil {
		return plans, nil, fmt.Errorf("solver: %w", err)
	}
	hourly, err := c.solveAllHours()
	if err != nil {
		return plans, nil, fmt.Errorf("solver: %w", err)
	}
	results := make([]Result, 24)
	for h := 0; h < 24; h++ {
		at := hours[h]
		plans[at.Hour()] = hourly[h].Plan
		results[at.Hour()] = hourly[h]
	}
	return plans, results, nil
}

// SolveCoarse returns the best single-region plan — the O(|R|) baseline
// discussed in §5.1 — still subject to tolerances and constraints. Region
// candidates must be eligible for every stage.
func (s *Solver) SolveCoarse(at, now time.Time) (Result, error) {
	c, err := s.newSearch([]time.Time{at}, now)
	if err != nil {
		return Result{}, err
	}
	homeAssign := c.snap.HomeAssign()
	homeEst, err := c.estimate(homeAssign, 0)
	if err != nil {
		return Result{}, err
	}
	var assigns [][]int
	for _, r := range s.commonEligible() {
		if r == s.in.Home() {
			continue
		}
		idx, ok := c.snap.RegionIndex(r)
		if !ok {
			continue
		}
		a := make([]int, len(s.order))
		for i := range a {
			a[i] = idx
		}
		assigns = append(assigns, a)
	}
	ests, err := c.evalAll(assigns, 0)
	if err != nil {
		return Result{}, err
	}
	best := Result{c.snap.PlanOf(homeAssign), homeEst}
	for i, est := range ests {
		if s.violates(est, homeEst) {
			continue
		}
		if metricOf(est, s.obj.Priority) < best.Metric(s.obj.Priority) {
			best = Result{c.snap.PlanOf(assigns[i]), est}
		}
	}
	return best, nil
}

// commonEligible lists regions eligible for every stage.
func (s *Solver) commonEligible() []region.ID {
	counts := map[region.ID]int{}
	for _, n := range s.order {
		for _, r := range s.eligible[n] {
			counts[r]++
		}
	}
	var out []region.ID
	for _, r := range s.eligible[s.order[0]] {
		if counts[r] == len(s.order) {
			out = append(out, r)
		}
	}
	return out
}
