package montecarlo

// Batched multi-plan replay: one sweep over the tape, K candidate plans.
//
// The solver evaluates candidate plans in groups — an HBSS proposal round,
// a chunk of the exhaustive enumeration — and every plan in a group
// replays the *same* per-hour tape. Plan-at-a-time replay therefore
// streams the plan-independent columns (node ids, flags, payload bytes,
// baked quantile triples, edge records) K times per group. EstimateBatch
// restructures the loop: steps outermost, lanes innermost, so each
// column load is fetched once per sweep and reused K ways, while each
// lane keeps its own scratch vectors and accumulator. A lane's
// additions, comparisons, and their order are exactly replaySoA's — the
// lanes are data-independent, so interleaving their instruction streams
// changes no result bit (the same argument as replaySoAPair, generalized
// from 2 fixed samples to K plans of one sample).
//
// On top of the shared sweep sits exact pruning. The solver knows, per
// candidate, a metric threshold above which the candidate cannot be
// chosen (hbss.go: the inverted acceptWorse cutoff; exhaustive: the
// incumbent metric). At every batch boundary — after the convergence
// check, which must see exactly the states the reference path sees — a
// lane that has not converged is abandoned once the bound columns
// (bounds.go) prove its final mean metric exceeds its threshold for
// every sample count it could still stop at. Abandoned lanes return a
// nil Estimate; survivors finish the full stopping rule, so every field
// of every returned Estimate is bit-identical to the plan-at-a-time
// path. Pruning is gated on the tape's bndOK latch and each lane's
// threshold being finite; disabling it (Config.NoBatchEval routes around
// this file entirely) changes cost, never results.
//
// Lane scratch (start/ready vectors) is carved from a single arena per
// batch; accumulators come from the snapshot's pool. Both live only for
// the duration of one EstimateBatch call — lanes never escape, and the
// returned Estimates are plain values.

import (
	"math"

	"caribou/internal/carbon"
)

// BatchMetric selects which metric mean a batch's prune thresholds bound.
// It mirrors the solver's optimization priority.
type BatchMetric int

const (
	BatchCarbonMean BatchMetric = iota
	BatchCostMean
	BatchLatencyMean
)

// BatchPrune carries per-candidate abandonment thresholds: candidate i
// may be abandoned once its final Metric mean provably exceeds
// Threshold[i]. A nil BatchPrune (or +Inf entries) disables pruning for
// the call (or candidate); thresholds must already include whatever
// slack the caller needs for the bound's prefix-sum reassociation error
// (see bounds.go).
type BatchPrune struct {
	Metric    BatchMetric
	Threshold []float64
}

func (p *BatchPrune) threshold(i int) float64 {
	if p == nil || i >= len(p.Threshold) {
		return math.Inf(1)
	}
	return p.Threshold[i]
}

func pruneMetric(p *BatchPrune) BatchMetric {
	if p == nil {
		return BatchCarbonMean
	}
	return p.Metric
}

// batchLane is one candidate plan's state through a shared sweep: its
// scratch vectors (carved from the batch arena), running sample, pooled
// accumulator, prune threshold, and — once finished — its estimate.
type batchLane struct {
	assign []int
	out    int // index into the caller's assigns/results
	thr    float64
	acc    *seriesAcc
	smp    sample
	start  []float64
	ready  []float64
	est    *Estimate
	pruned bool
}

// newBatchLanes builds one lane per candidate, all scratch vectors carved
// from a single arena allocation.
func (s *Snapshot) newBatchLanes(assigns [][]int, prune *BatchPrune) []*batchLane {
	n := s.nodes.Len()
	arena := make([]float64, 2*len(assigns)*n)
	ls := make([]batchLane, len(assigns))
	lanes := make([]*batchLane, len(assigns))
	for i, a := range assigns {
		ln := &ls[i]
		ln.assign = a
		ln.out = i
		ln.thr = prune.threshold(i)
		ln.acc = s.getAcc()
		ln.start, arena = arena[:n:n], arena[n:]
		ln.ready, arena = arena[:n:n], arena[n:]
		lanes[i] = ln
	}
	return lanes
}

func (s *Snapshot) releaseLanes(lanes []*batchLane) {
	for _, ln := range lanes {
		s.putAcc(ln.acc)
		ln.acc = nil
	}
}

// EstimateBatch evaluates all candidate plans at hour h through shared
// sweeps over the hour's tape. Results align with assigns; an entry is
// nil exactly when pruning proved that candidate's Metric mean exceeds
// its threshold, and otherwise bit-identical to Estimate(assigns[i], h).
// Snapshots without tapes (or with deferred exec errors) fall back to
// sequential evaluation with pruning disabled.
func (s *Snapshot) EstimateBatch(assigns [][]int, h int, prune *BatchPrune) ([]*Estimate, error) {
	for _, a := range assigns {
		if err := s.checkArgs(a, h); err != nil {
			return nil, err
		}
	}
	out := make([]*Estimate, len(assigns))
	if len(assigns) == 0 {
		return out, nil
	}
	if s.tapes == nil || s.anyExecErr {
		for i, a := range assigns {
			est, err := s.Estimate(a, h)
			if err != nil {
				return nil, err
			}
			out[i] = est
		}
		return out, nil
	}
	if len(assigns) == 1 {
		est, err := s.estimateTaped(assigns[0], h)
		if err != nil {
			return nil, err
		}
		out[0] = est
		return out, nil
	}
	lanes := s.newBatchLanes(assigns, prune)
	defer s.releaseLanes(lanes)
	if err := s.batchSweepFull(s.tapes[h], lanes, h, pruneMetric(prune)); err != nil {
		return nil, err
	}
	for _, ln := range lanes {
		out[ln.out] = ln.est
	}
	return out, nil
}

// batchSweepFull runs the batched stopping rule from sample 0: per batch,
// replay BatchSize samples across all live lanes, then settle each lane at
// the boundary (converged/exhausted → summarize, bound-beaten → prune).
func (s *Snapshot) batchSweepFull(t *hourTape, lanes []*batchLane, h int, metric BatchMetric) error {
	s.tel.batchSweeps.Inc()
	s.tel.batchPlans.Add(int64(len(lanes)))
	// Boundary filtering compacts in place, so work on a copy and leave
	// the caller's slice (its result index) untouched.
	active := append([]*batchLane(nil), lanes...)
	n := 0
	for n < MaxSamples && len(active) > 0 {
		td := t.ensure(s, h, n+BatchSize)
		k := td.blocks[n/BatchSize]
		for j := 0; j < BatchSize; j++ {
			s.batchInitSample(k, j, h, active)
			s.batchRunSteps(k, k.stepOff[j], k.stepOff[j+1], h, active)
			for _, ln := range active {
				ln.acc.add(ln.smp)
			}
		}
		n += BatchSize
		var err error
		if active, err = s.batchBoundary(td, active, n, metric); err != nil {
			return err
		}
	}
	return nil
}

// batchInitSample resets every lane's scratch and replays the entry block
// of sample j of block k for each lane, mirroring replaySoA's prologue
// exactly.
func (s *Snapshot) batchInitSample(k *tapeBlock, j, h int, lanes []*batchLane) {
	home := s.home
	nR := s.nR
	rf := s.txRF[h]
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	entry := s.start
	entryBytes := k.entry[j]
	q := k.entry9[j]
	eb := entryBytes
	if eb < 0 {
		eb = 0
	}
	kvHome := s.kvAccess[home]
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	dynRead := s.dynReadUSD
	for _, ln := range lanes {
		st, rd := ln.start, ln.ready
		for v := range st {
			st[v] = 0
			rd[v] = 0
		}
		var smp sample
		he := home*nR + ln.assign[entry]
		smp.cost += dynRead
		smp.cost += snsHome
		if entryBytes > 0 {
			smp.txCarbon += rf[he] * q
			smp.cost += q * egress[he]
		}
		st[entry] = kvHome + msgOverhead + (txBase[he] + eb*txPerByte[he])
		ln.smp = smp
	}
}

// batchRunSteps replays the step span [lo, hi) of block k for every
// lane: steps outermost so each plan-independent column load is shared,
// lanes innermost with each lane executing the exact runSoASteps body
// against its own scratch and accumulators. Callers must guarantee no
// exec errors exist (s.anyExecErr false) — like the pair replayers, the
// batch body omits the per-step error check.
func (s *Snapshot) batchRunSteps(k *tapeBlock, lo, hi int32, h int, lanes []*batchLane) {
	home := s.home
	nR := s.nR
	inten := s.intensity[h]
	rf := s.txRF[h]
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	kvAccess := s.kvAccess
	dynRead, dynWrite := s.dynReadUSD, s.dynWriteUSD
	snsUSD := s.snsUSD
	nodeC, flagsC, stagedC, outC, drcC, aux9C, out9C := k.node, k.flags, k.staged, k.out, k.drc, k.aux9, k.out9
	edgeOffC, toC, kindC, bytesC, skipOffC, e9C := k.edgeOff, k.to, k.kind, k.bytes, k.skipOff, k.e9
	skipS := k.skipSyncs

	for si := lo; si < hi; si++ {
		n := int(nodeC[si])
		flags := flagsC[si]
		staged := stagedC[si]
		aux9v := aux9C[si]
		drcRow := drcC[int(si)*nR*3 : (int(si)+1)*nR*3]
		isSync := flags&stepSync != 0
		isOut := flags&stepOutput != 0
		var outV, out9v float64
		var eLo, eHi int32
		if isOut {
			outV = outC[si]
			out9v = out9C[si]
		} else {
			eLo, eHi = edgeOffC[si], edgeOffC[si+1]
		}
		for _, ln := range lanes {
			smp := ln.smp
			r := ln.assign[n]
			var startN float64
			if isSync {
				hr := home*nR + r
				smp.cost += snsHome
				smp.txCarbon += rf[hr] * (controlBytes / 1e9)
				smp.cost += controlBytes / 1e9 * egress[hr]
				arrive := ln.ready[n] + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
				ld := staged
				if ld < 0 {
					ld = 0
				}
				load := kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
				smp.cost += dynRead
				if staged > 0 {
					smp.txCarbon += rf[hr] * aux9v
					smp.cost += aux9v * egress[hr]
				}
				startN = arrive + load
			} else {
				startN = ln.start[n]
			}
			base := r * 3
			finish := startN + drcRow[base]
			if finish > smp.latency {
				smp.latency = finish
			}
			smp.execCarbon += inten[r] * drcRow[base+1] * carbon.PUE
			smp.cost += drcRow[base+2]
			if isOut {
				if outV > 0 {
					rh := r*nR + home
					smp.txCarbon += rf[rh] * out9v
					smp.cost += out9v * egress[rh]
				}
			} else {
				for ei := eLo; ei < eHi; ei++ {
					to := int(toC[ei])
					switch kindC[ei] {
					case tapeEdgeSkip:
						for ki := skipOffC[ei]; ki < skipOffC[ei+1]; ki++ {
							sn := int(skipS[ki])
							if finish > ln.ready[sn] {
								ln.ready[sn] = finish
							}
						}
						smp.cost += dynWrite // skip annotation
					case tapeEdgeStage:
						b := bytesC[ei]
						rh := r*nR + home
						smp.cost += dynWrite
						smp.cost += dynWrite
						tb := b
						if tb < 0 {
							tb = 0
						}
						if b > 0 {
							q := e9C[ei]
							smp.txCarbon += rf[rh] * q
							smp.cost += q * egress[rh]
						}
						ready := finish + (txBase[rh] + tb*txPerByte[rh]) + kvAccess[r]
						if ready > ln.ready[to] {
							ln.ready[to] = ready
						}
					case tapeEdgeDirect:
						smp.cost += snsUSD[r]
						total := bytesC[ei] + controlBytes
						rt := r*nR + ln.assign[to]
						if total > 0 {
							q := e9C[ei]
							smp.txCarbon += rf[rt] * q
							smp.cost += q * egress[rt]
						}
						tb := total
						if tb < 0 {
							tb = 0
						}
						arrive := finish + msgOverhead + (txBase[rt] + tb*txPerByte[rt])
						if arrive > ln.start[to] {
							ln.start[to] = arrive
						}
					}
				}
			}
			ln.smp = smp
		}
	}
}

// batchBoundary settles every live lane at sample count n: lanes that
// converged (the check runs for every lane at every boundary, exactly as
// the reference loop calls it) or exhausted the tape are summarized;
// unconverged lanes whose bound proves their final mean must exceed
// their threshold are abandoned; the rest stay live. Returns the
// compacted live set (filtering active in place — callers pass a copy).
func (s *Snapshot) batchBoundary(td *tapeData, active []*batchLane, n int, metric BatchMetric) ([]*batchLane, error) {
	live := active[:0]
	bounded := td.boundsOK()
	for _, ln := range active {
		if ln.acc.converged() || n >= MaxSamples {
			est, err := ln.acc.summarize()
			if err != nil {
				return nil, err
			}
			ln.est = est
			s.tel.estimates.Inc()
			s.tel.samples.Add(int64(n))
			s.tel.tapeReplays.Add(int64(n))
			continue
		}
		if bounded && !math.IsInf(ln.thr, 1) && batchLowerBound(td, ln, n, metric) > ln.thr {
			ln.pruned = true
			s.tel.prunedCandidates.Inc()
			continue
		}
		live = append(live, ln)
	}
	return live, nil
}

// batchLowerBound returns a lower bound on the lane's final mean of the
// pruning metric over every sample count the stopping rule could still
// halt at. The lane's partial sum is re-accumulated left-to-right — the
// exact float prefix of the summation stats.Mean would perform — and the
// remaining samples contribute their floor sums (bounds.go); samples
// past the compiled tape contribute an implicit 0, valid because the
// floors are non-negative whenever bndOK holds.
func batchLowerBound(td *tapeData, ln *batchLane, n int, metric BatchMetric) float64 {
	var series []float64
	switch metric {
	case BatchCostMean:
		series = ln.acc.cost
	case BatchLatencyMean:
		series = ln.acc.lat
	default:
		series = ln.acc.carb
	}
	var partial float64
	for _, v := range series {
		partial += v
	}
	low := math.Inf(1)
	preN := td.floorSum(metric, n)
	for nf := n + BatchSize; nf <= MaxSamples; nf += BatchSize {
		known := nf
		if known > td.n {
			known = td.n
		}
		b := (partial + (td.floorSum(metric, known) - preN)) / float64(nf)
		if b < low {
			low = b
		}
	}
	return low
}
