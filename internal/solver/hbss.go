package solver

import (
	"math"
	"strconv"

	"caribou/internal/simclock"
)

// Heuristic-Biased Stochastic Sampling (Alg. 1). Hyper-parameters follow
// the paper's empirically determined values: α = |N|·|R|·6 iterations,
// bias β = 0.2, initial temperature γ = 1.0 cooled by 0.99 per accepted
// move.
const (
	alphaFactor = 6
	biasBeta    = 0.2
	gammaInit   = 1.0
	gammaCool   = 0.99
)

// hbssBatch is the number of speculative HBSS iterations generated per
// round. All proposals of a round derive from the round-start incumbent
// and evaluate concurrently; acceptance then replays sequentially in
// iteration order. The constant is deliberately independent of the worker
// count so the search trajectory is identical at any parallelism.
const hbssBatch = 16

// pruneMargin is the relative slack added to every prune threshold. The
// bound replay itself is float-exact (bounds.go), but the prefix-sum
// floors are accumulated in a different association than the lane's own
// running sum, and inverting acceptWorse's exp into a metric cutoff
// crosses exp/ln once; both slacks are O(n·ε) ≈ 1e-13 relative, absorbed
// with four orders of magnitude to spare. The margin only ever keeps a
// candidate alive longer — never prunes one the reference would accept.
const pruneMargin = 1e-9

// clampDenom mirrors acceptWorse's denominator guard: the relative
// regression divides by the incumbent metric, floored at 1e-12 for
// non-positive metrics.
func clampDenom(m float64) float64 {
	if m <= 0 {
		return 1e-12
	}
	return m
}

// pruneThreshold inverts the acceptance rule of one proposal into a
// metric cutoff: with incumbent metric m0, temperature gamma, and the
// proposal's pre-drawn uniform u, acceptWorse accepts a candidate metric
// m iff u < exp(-(m-m0)/(clampDenom(m0)·gamma)), i.e. iff
// m < m0 − clampDenom(m0)·gamma·ln(u); metrics below m0 are accepted by
// the strict improvement test regardless. A candidate whose metric
// provably exceeds the cutoff (plus margin) therefore cannot be accepted
// by this proposal. u ≤ 0 always accepts (exp(·) > 0), so its cutoff is
// +Inf — never pruned.
func pruneThreshold(m0, gamma, u float64) float64 {
	if u <= 0 {
		return math.Inf(1)
	}
	t := m0 - clampDenom(m0)*gamma*math.Log(u)
	return t + pruneMargin*math.Abs(t)
}

// solveHBSS runs the batched, deterministic variant of Alg. 1 from the
// home deployment. Iteration i draws all of its randomness — the
// perturbation and the pre-drawn acceptance uniform — from an independent
// stream DeriveRand(seed, "solver/<at>/<i>"), so a proposal depends only
// on (seed, hour, iteration, incumbent) and never on which goroutine
// evaluated it.
func (c *search) solveHBSS(h int, home denseResult) (denseResult, error) {
	s := c.s
	regionsPerNode := 0
	for _, e := range c.elig {
		if len(e) > regionsPerNode {
			regionsPerNode = len(e)
		}
	}
	alpha := len(c.elig) * regionsPerNode * alphaFactor
	if s.maxIter > 0 && alpha > s.maxIter {
		alpha = s.maxIter
	}

	ranked := c.rankedEligible(h)
	atUnix := c.snap.HourTime(h).Unix()

	// Stream labels are "solver/<at>/<i>". Building them with
	// strconv.AppendInt into a reused buffer keeps the bytes — and hence
	// every derived seed — identical to the former fmt.Sprintf while
	// dropping the per-iteration format-parsing cost.
	labelPrefix := "solver/" + strconv.FormatInt(atUnix, 10) + "/"
	labelBuf := make([]byte, 0, len(labelPrefix)+20)

	type proposal struct {
		assign  []int
		key     string
		uAccept float64
	}

	gamma := gammaInit
	current := home
	best := home
	seen := map[string]bool{assignKey(home.assign): true}
	explored := int64(1)

	for iter := 0; iter < alpha; {
		end := iter + hbssBatch
		if end > alpha {
			end = alpha
		}
		// m0 is the round-start incumbent metric every prune threshold is
		// derived from; the acceptance loop re-checks its premise before
		// honoring a pruned (nil) estimate.
		m0 := metricOf(current.est, s.obj.Priority)
		props := make([]proposal, 0, end-iter)
		assigns := make([][]int, 0, end-iter)
		thrs := make([]float64, 0, end-iter)
		for i := iter; i < end; i++ {
			labelBuf = append(labelBuf[:0], labelPrefix...)
			labelBuf = strconv.AppendInt(labelBuf, int64(i), 10)
			rng := simclock.AcquireDerived(s.seed, string(labelBuf))
			nd := c.propose(current.assign, ranked, rng)
			u := rng.Float64()
			rng.Release()
			props = append(props, proposal{nd, assignKey(nd), u})
			assigns = append(assigns, nd)
			thrs = append(thrs, pruneThreshold(m0, gamma, u))
		}
		iter = end

		// Previously seen plans are already memoized, so evaluating the
		// whole round costs only its fresh plans.
		s.tel.hbssBatches.Inc()
		ests, err := c.evalAllPruned(assigns, h, thrs)
		if err != nil {
			return denseResult{}, err
		}

		// Sequential acceptance replay, identical at any worker count.
		for j, p := range props {
			if seen[p.key] {
				continue
			}
			seen[p.key] = true
			explored++
			est := ests[j]
			if est == nil {
				// Pruned: the batch sweep proved the candidate's metric
				// exceeds this proposal's cutoff at round-start state
				// (m0, round-start gamma). The rejection carries over to
				// the live state exactly when the cutoff has not loosened
				// since: gamma only cools (shrinking the cutoff), so it
				// suffices that the incumbent metric has not risen past
				// m0 and that the denominator clamp is monotone across
				// the pair (it is not near 0, where m ≤ 0 clamps to 1e-12
				// but a tiny positive m does not). Otherwise the proof's
				// premise lapsed — evaluate in full (memoized,
				// bit-identical) and run the normal acceptance.
				mNew := metricOf(current.est, s.obj.Priority)
				if mNew <= m0 && clampDenom(mNew) <= clampDenom(m0) {
					continue
				}
				var eerr error
				if est, eerr = c.estimate(p.assign, h); eerr != nil {
					return denseResult{}, eerr
				}
			}
			if s.violates(est, home.est) {
				continue
			}
			cand := denseResult{p.assign, est}
			accept := metricOf(cand.est, s.obj.Priority) < metricOf(current.est, s.obj.Priority) ||
				acceptWorse(p.uAccept, gamma, current, cand, s.obj.Priority)
			if accept {
				current = cand
				gamma *= gammaCool
				if metricOf(cand.est, s.obj.Priority) < metricOf(best.est, s.obj.Priority) {
					best = cand
				}
			}
			if explored >= c.space {
				return best, nil // complete exploration
			}
		}
	}
	return best, nil
}

// propose perturbs the incumbent: 1 + Geometric(1/2) stages (capped at
// |N|) are reassigned, each drawn from the hour's intensity ranking with
// geometric bias β^rank, so low-carbon regions are proposed most often
// but the whole space stays reachable.
func (c *search) propose(cur []int, ranked [][]int, rng *simclock.Rand) []int {
	nd := append([]int(nil), cur...)
	k := 1
	for k < len(nd) && rng.Bool(0.5) {
		k++
	}
	perm := rng.Perm(len(nd))
	for _, idx := range perm[:k] {
		nd[idx] = pickBiased(ranked[idx], rng)
	}
	return nd
}

// pickBiased selects from a ranked list with geometric weights β^rank.
func pickBiased(ranked []int, rng *simclock.Rand) int {
	if len(ranked) == 1 {
		return ranked[0]
	}
	total := 0.0
	w := 1.0
	for range ranked {
		total += w
		w *= biasBeta
	}
	u := rng.Float64() * total
	w = 1.0
	for _, r := range ranked {
		if u < w {
			return r
		}
		u -= w
		w *= biasBeta
	}
	return ranked[len(ranked)-1]
}

// acceptWorse is the stochastic acceptance of Alg. 1 (MUT): accept a
// non-improving deployment when the iteration's pre-drawn uniform falls
// below exp(-Δ/γ), where Δ is the relative metric regression. Cooling γ
// makes the search increasingly greedy.
func acceptWorse(u, gamma float64, cd, nd denseResult, p Priority) bool {
	denom := metricOf(cd.est, p)
	if denom <= 0 {
		denom = 1e-12
	}
	delta := math.Abs(metricOf(cd.est, p)-metricOf(nd.est, p)) / denom
	return u < math.Exp(-delta/gamma)
}
