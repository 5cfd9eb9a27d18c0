package solver

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"caribou/internal/montecarlo"
	"caribou/internal/region"
)

// exhaustiveCutoff is the search-space size below which exhaustive
// enumeration is cheaper than sampling.
const exhaustiveCutoff = 256

// evalChunk is how many deduplicated evaluation jobs one batched
// EstimateBatch call carries. An HBSS round's fresh proposals
// (≤ hbssBatch) always fit one chunk; larger exhaustive job lists split
// into chunk-grained goroutines so the worker bound still applies.
// Chunk boundaries depend only on the job order, never on
// scheduling, so the pruning decisions inside a chunk are deterministic.
const evalChunk = 16

// search is the per-solve context: the compiled evaluation snapshot,
// dense per-stage eligibility, the (plan, hour) estimate memo shared
// across HBSS, exhaustive enumeration, and all hourly solves, and the
// semaphore bounding concurrent evaluations.
//
// Determinism: a plan estimate is a pure function of (assignment, hour) —
// the Monte Carlo stream is derived from (seed, workflow, hour), never
// from shared state — so a memo hit is indistinguishable from a fresh
// computation and neither scheduling order nor the worker count can
// change any result.
type search struct {
	s     *Solver
	snap  *montecarlo.Snapshot
	elig  [][]int // per dense node index: eligible region indices
	space int64

	// batch routes grouped evaluations through the shared-sweep batch
	// replayers with bound-based pruning (montecarlo.EstimateBatch);
	// disabled by Config.NoBatchEval and implied off by UntapedEstimates
	// (the batch sweep walks tape columns).
	batch bool

	mu    sync.Mutex
	cache map[memoKey]*montecarlo.Estimate

	sem chan struct{} // bounds concurrent Estimate calls across all hours
}

// memoKey identifies one (plan, hour) evaluation.
type memoKey struct {
	plan string
	hour int
}

// assignKey encodes a dense assignment as a compact map key (two bytes
// per stage), replacing the Plan.String keys — and the dag.Plan cloning
// around them — of the pre-snapshot search.
func assignKey(assign []int) string {
	b := make([]byte, 2*len(assign))
	for i, r := range assign {
		b[2*i] = byte(r)
		b[2*i+1] = byte(r >> 8)
	}
	return string(b)
}

// newSearch compiles the solver's Inputs into a snapshot covering the
// given solve instants. Only the home region and regions eligible for at
// least one stage are interned.
func (s *Solver) newSearch(hours []time.Time, now time.Time) (*search, error) {
	used := map[region.ID]bool{s.in.Home(): true}
	for _, n := range s.order {
		for _, r := range s.eligible[n] {
			used[r] = true
		}
	}
	var ids []region.ID
	for _, id := range s.in.Catalogue().IDs() {
		if used[id] {
			ids = append(ids, id)
		}
	}
	snap, err := s.est.Compile(ids, hours, now)
	if err != nil {
		return nil, err
	}
	// Tapes are per-snapshot, so one lazily compiled tape per hour is
	// shared — read-only after each extension — by every estimate this
	// search performs: HBSS rounds, exhaustive enumeration, the coarse
	// baseline, and all hourly solves.
	snap.SetTapes(!s.untaped)
	elig := make([][]int, len(s.order))
	for i, n := range s.order {
		for _, rid := range s.eligible[n] {
			idx, ok := snap.RegionIndex(rid)
			if !ok {
				return nil, fmt.Errorf("solver: region %q not interned", rid)
			}
			elig[i] = append(elig[i], idx)
		}
	}
	return &search{
		s:     s,
		snap:  snap,
		elig:  elig,
		space: s.searchSpace(),
		batch: !s.nobatch && !s.untaped,
		cache: make(map[memoKey]*montecarlo.Estimate),
		sem:   make(chan struct{}, s.workers),
	}, nil
}

// estimate evaluates a single assignment at hour h through the memo.
func (c *search) estimate(assign []int, h int) (*montecarlo.Estimate, error) {
	ests, err := c.evalAll([][]int{assign}, h)
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// evalAll returns estimates for the assignments at hour h: memo hits are
// returned directly, misses are deduplicated and computed — concurrently
// when more than one worker is configured, bounded by the shared
// semaphore — then memoized. Errors surface in first-assignment order so
// failure behaviour is as deterministic as success.
func (c *search) evalAll(assigns [][]int, h int) ([]*montecarlo.Estimate, error) {
	return c.evalAllPruned(assigns, h, nil)
}

// batchMetric maps the solver priority onto the batch sweep's pruning
// metric — the same mean metricOf reads.
func batchMetric(p Priority) montecarlo.BatchMetric {
	switch p {
	case PriorityCost:
		return montecarlo.BatchCostMean
	case PriorityLatency:
		return montecarlo.BatchLatencyMean
	default:
		return montecarlo.BatchCarbonMean
	}
}

// evalAllPruned is evalAll with per-assignment abandonment
// thresholds (nil thr, or +Inf entries, disable pruning). With batch
// evaluation enabled, deduplicated cache misses are evaluated in
// evalChunk-sized groups through one shared tape sweep each; a returned
// nil estimate means the sweep proved that candidate's priority metric
// exceeds its threshold. Pruned results are never memoized — the proof
// is relative to this call's thresholds — so out[i] stays nil for every
// occurrence of a pruned plan. A duplicated assignment's job carries the
// threshold of its first unmemoized occurrence; that is the only
// occurrence whose estimate the HBSS acceptance loop can reach (later
// duplicates fail its seen check), so the sharing cannot leak a prune
// decision across different thresholds.
func (c *search) evalAllPruned(assigns [][]int, h int, thr []float64) ([]*montecarlo.Estimate, error) {
	out := make([]*montecarlo.Estimate, len(assigns))
	keys := make([]string, len(assigns))
	type job struct {
		assign []int
		key    string
		thr    float64
	}
	var jobs []job
	hits := int64(0)
	pending := map[string]bool{}
	c.mu.Lock()
	for i, a := range assigns {
		k := assignKey(a)
		keys[i] = k
		if est, ok := c.cache[memoKey{k, h}]; ok {
			out[i] = est
			hits++
			continue
		}
		if !pending[k] {
			pending[k] = true
			t := math.Inf(1)
			if thr != nil {
				t = thr[i]
			}
			jobs = append(jobs, job{append([]int(nil), a...), k, t})
		}
	}
	c.mu.Unlock()
	c.s.tel.memoHits.Add(hits)
	c.s.tel.estimates.Add(int64(len(jobs)))
	if len(jobs) == 0 {
		return out, nil
	}

	ests := make([]*montecarlo.Estimate, len(jobs))
	errs := make([]error, len(jobs))
	if c.batch {
		runChunk := func(lo, hi int) {
			as := make([][]int, hi-lo)
			ts := make([]float64, hi-lo)
			for j := lo; j < hi; j++ {
				as[j-lo] = jobs[j].assign
				ts[j-lo] = jobs[j].thr
			}
			prune := &montecarlo.BatchPrune{Metric: batchMetric(c.s.obj.Priority), Threshold: ts}
			es, err := c.snap.EstimateBatch(as, h, prune)
			for j := lo; j < hi; j++ {
				if err != nil {
					errs[j] = err
					continue
				}
				ests[j] = es[j-lo]
			}
		}
		if c.s.workers <= 1 {
			runChunk(0, len(jobs))
		} else if len(jobs) <= evalChunk {
			// One chunk, run inline — but under an evaluation slot, so
			// concurrent hour coordinators stay bounded by the worker
			// count now that the coordinator itself sweeps the tape.
			c.sem <- struct{}{}
			runChunk(0, len(jobs))
			<-c.sem
		} else {
			var wg sync.WaitGroup
			for lo := 0; lo < len(jobs); lo += evalChunk {
				hi := lo + evalChunk
				if hi > len(jobs) {
					hi = len(jobs)
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					c.sem <- struct{}{}
					runChunk(lo, hi)
					<-c.sem
				}(lo, hi)
			}
			wg.Wait()
		}
	} else {
		if c.s.workers <= 1 || len(jobs) == 1 {
			for j := range jobs {
				ests[j], errs[j] = c.snap.Estimate(jobs[j].assign, h)
			}
		} else {
			var wg sync.WaitGroup
			for j := range jobs {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					c.sem <- struct{}{}
					ests[j], errs[j] = c.snap.Estimate(jobs[j].assign, h)
					<-c.sem
				}(j)
			}
			wg.Wait()
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	computed := make(map[string]*montecarlo.Estimate, len(jobs))
	c.mu.Lock()
	for j := range jobs {
		if ests[j] == nil {
			continue // pruned: valid only against this call's thresholds
		}
		c.cache[memoKey{jobs[j].key, h}] = ests[j]
		computed[jobs[j].key] = ests[j]
	}
	c.mu.Unlock()
	for i := range out {
		if out[i] == nil {
			out[i] = computed[keys[i]]
		}
	}
	return out, nil
}

// denseResult pairs a dense assignment with its estimate.
type denseResult struct {
	assign []int
	est    *montecarlo.Estimate
}

// solveHour solves one hour of the compiled window.
func (c *search) solveHour(h int) (Result, error) {
	homeAssign := c.snap.HomeAssign()
	homeEst, err := c.estimate(homeAssign, h)
	if err != nil {
		return Result{}, err
	}
	home := denseResult{homeAssign, homeEst}
	var best denseResult
	if c.space <= exhaustiveCutoff {
		best, err = c.solveExhaustive(h, home)
	} else {
		best, err = c.solveHBSS(h, home)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{c.snap.PlanOf(best.assign), best.est}, nil
}

// solveAllHours fans the hourly solves across goroutines. Hour
// coordinators hold no evaluation slots — the shared semaphore bounds
// actual Monte Carlo work at the configured worker count — and each
// hour's outcome is independent of the others, so the fan-out cannot
// perturb results.
func (c *search) solveAllHours() ([]Result, error) {
	n := c.snap.NumHours()
	results := make([]Result, n)
	errs := make([]error, n)
	if c.s.workers <= 1 {
		for h := 0; h < n; h++ {
			results[h], errs[h] = c.solveHour(h)
		}
	} else {
		var wg sync.WaitGroup
		for h := 0; h < n; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				results[h], errs[h] = c.solveHour(h)
			}(h)
		}
		wg.Wait()
	}
	for h, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("hour %d: %w", h, err)
		}
	}
	return results, nil
}

// solveExhaustive enumerates the full plan space in odometer order (the
// same order as the pre-snapshot recursive walk), evaluates every plan
// through the pool, and picks the winner by a sequential scan in
// enumeration order.
func (c *search) solveExhaustive(h int, home denseResult) (denseResult, error) {
	var all [][]int
	cur := make([]int, len(c.elig))
	var walk func(i int)
	walk = func(i int) {
		if i == len(c.elig) {
			all = append(all, append([]int(nil), cur...))
			return
		}
		for _, r := range c.elig[i] {
			cur[i] = r
			walk(i + 1)
		}
	}
	walk(0)
	// The winner is the argmin starting from home, so any candidate whose
	// priority metric provably exceeds the home metric (plus the bound
	// slack margin) can be abandoned mid-sweep: best only improves on
	// home, hence a pruned candidate can never be the final argmin.
	mHome := metricOf(home.est, c.s.obj.Priority)
	cut := mHome + pruneMargin*math.Abs(mHome)
	thr := make([]float64, len(all))
	for i := range thr {
		thr[i] = cut
	}
	ests, err := c.evalAllPruned(all, h, thr)
	if err != nil {
		return denseResult{}, err
	}
	best := home
	for i, est := range ests {
		if est == nil {
			continue // pruned: metric above the home baseline
		}
		if c.s.violates(est, home.est) {
			continue
		}
		if metricOf(est, c.s.obj.Priority) < metricOf(best.est, c.s.obj.Priority) {
			best = denseResult{all[i], est}
		}
	}
	return best, nil
}

// rankedEligible orders each stage's eligible regions by ascending grid
// intensity at hour h — the greedy heuristic HBSS biases toward. The
// ranking reads the snapshot's pre-resolved intensity table, sorts with
// sort.Slice (region index breaks ties, keeping the order total and
// deterministic), and is computed once per (stage, hour), shared by every
// HBSS iteration of that hour.
func (c *search) rankedEligible(h int) [][]int {
	out := make([][]int, len(c.elig))
	for i, elig := range c.elig {
		rs := append([]int(nil), elig...)
		sort.Slice(rs, func(a, b int) bool {
			va, vb := c.snap.IntensityIdx(h, rs[a]), c.snap.IntensityIdx(h, rs[b])
			if va != vb {
				return va < vb
			}
			return rs[a] < rs[b]
		})
		out[i] = rs
	}
	return out
}
