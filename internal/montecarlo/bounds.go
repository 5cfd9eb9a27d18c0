package montecarlo

// Exact pruning bounds: plan-independent per-sample metric floors.
//
// The batch evaluator (batch.go) abandons a candidate plan mid-sweep once
// no completion of its replay can bring its final mean metric below the
// solver-supplied threshold. That requires, for every compiled sample, a
// lower bound on the metric contribution the sample makes under *any*
// assignment. Because the tape fixes the event skeleton, such a bound is
// computable once per sample at compile time by replaying the sample
// with every region-dependent coefficient replaced by its minimum over
// the choices a plan could make:
//
//   - per (step, region) terms — the duration quantile, the
//     intensity-weighted energy product, and the execution cost — take
//     their per-step minimum over regions (baked into bndStep triples);
//   - transfer/egress/transmission-factor coefficients take the minimum
//     over the region pairs the event can touch (home-row for entry and
//     sync loads, home-column for staging and write-back, all pairs for
//     direct edges);
//   - KV access and SNS publish take the minimum over regions.
//
// Every operation in the replay — addition, multiplication by a
// non-negative operand, and max — is monotone in each input, and IEEE-754
// round-to-nearest is itself monotone, so the bound replay's float result
// is ≤ the real replay's float result for every plan, sample by sample:
// the bound is exact at the float level, not just in real arithmetic.
// Per-sample bounds are accumulated into one running sum per metric,
// recorded at every block end (tapeBlock.preLat/preCost/preCarb); pruning
// checks only ever ask for spans between batch boundaries, so the
// remaining-sample floor of any span is two loads and a subtraction. The only slack
// the consumer must absorb is prefix-sum reassociation (≤ n·ε relative),
// which the solver's threshold margin covers by many orders of magnitude.
//
// Bounds are only valid as *floors of a mean* when per-sample values are
// non-negative: samples past the compiled tape prefix contribute an
// implicit 0 to the floor (they are unknown at prune time). If any baked
// bound ever goes negative — possible only with pathological negative
// duration or transfer inputs — bndOK latches false and pruning is
// disabled for the tape; results are unaffected because pruning is an
// optimization, never a semantic change.

import "caribou/internal/carbon"

// boundTables holds the snapshot-level coefficient minima the bound
// replay substitutes for region-dependent lookups. Baked once at Compile;
// rf minima are per hour because transmission factors fold the hour's
// intensities.
type boundTables struct {
	ok                                             bool
	txBaseHomeRow, txPerByteHomeRow, egressHomeRow float64
	txBaseHomeCol, txPerByteHomeCol, egressHomeCol float64
	txBaseAll, txPerByteAll, egressAll             float64
	kv, sns                                        float64
	rfHomeRow, rfHomeCol, rfAll                    []float64 // [hour]
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// bakeBoundTables fills the snapshot's coefficient minima. Skipped when a
// deferred exec error exists: the batch evaluator falls back to the
// sequential path in that case, so bounds would never be read.
func (s *Snapshot) bakeBoundTables() {
	if s.anyExecErr {
		return
	}
	nR, home := s.nR, s.home
	rowMin := func(tab []float64, fixedFrom int) float64 {
		m := tab[fixedFrom*nR]
		for r := 1; r < nR; r++ {
			if v := tab[fixedFrom*nR+r]; v < m {
				m = v
			}
		}
		return m
	}
	colMin := func(tab []float64, fixedTo int) float64 {
		m := tab[fixedTo]
		for r := 1; r < nR; r++ {
			if v := tab[r*nR+fixedTo]; v < m {
				m = v
			}
		}
		return m
	}
	s.bnd.txBaseHomeRow = rowMin(s.txBase, home)
	s.bnd.txPerByteHomeRow = rowMin(s.txPerByte, home)
	s.bnd.egressHomeRow = rowMin(s.egressPerGB, home)
	s.bnd.txBaseHomeCol = colMin(s.txBase, home)
	s.bnd.txPerByteHomeCol = colMin(s.txPerByte, home)
	s.bnd.egressHomeCol = colMin(s.egressPerGB, home)
	s.bnd.txBaseAll = minOf(s.txBase)
	s.bnd.txPerByteAll = minOf(s.txPerByte)
	s.bnd.egressAll = minOf(s.egressPerGB)
	s.bnd.kv = minOf(s.kvAccess)
	s.bnd.sns = minOf(s.snsUSD)
	s.bnd.rfHomeRow = make([]float64, len(s.hours))
	s.bnd.rfHomeCol = make([]float64, len(s.hours))
	s.bnd.rfAll = make([]float64, len(s.hours))
	for h := range s.hours {
		rf := s.txRF[h]
		s.bnd.rfHomeRow[h] = rowMin(rf, home)
		s.bnd.rfHomeCol[h] = colMin(rf, home)
		s.bnd.rfAll[h] = minOf(rf)
	}
	s.bnd.ok = true
}

// bakeBoundSteps fills the block's per-step bound triples: the minimum
// over regions of each drc entry, with the energy intermediate folded
// against the hour's intensities and PUE in the replay's exact expression
// shape (inten[r]*drc*PUE).
func (s *Snapshot) bakeBoundSteps(c *tapeBlock, h int) {
	nR := s.nR
	inten := s.intensity[h]
	for i := range c.node {
		base := i * nR * 3
		minD := c.drc[base]
		minE := inten[0] * c.drc[base+1] * carbon.PUE
		minC := c.drc[base+2]
		for r := 1; r < nR; r++ {
			if d := c.drc[base+r*3]; d < minD {
				minD = d
			}
			if e := inten[r] * c.drc[base+r*3+1] * carbon.PUE; e < minE {
				minE = e
			}
			if cc := c.drc[base+r*3+2]; cc < minC {
				minC = cc
			}
		}
		o := i * 3
		c.bndStep[o] = minD
		c.bndStep[o+1] = minE
		c.bndStep[o+2] = minC
	}
}

// boundReplay replays sample j of block c with every region-dependent
// coefficient at its minimum, returning per-sample floors for the three
// convergence metrics. The control flow mirrors replaySoA/runSoASteps
// expression for expression so float monotonicity applies term-wise.
func (s *Snapshot) boundReplay(c *tapeBlock, j, h int, sc *replayScratch) (lat, cost, carb float64) {
	sc.reset()
	var smp sample
	b := &s.bnd
	rfHR, rfHC, rfAll := b.rfHomeRow[h], b.rfHomeCol[h], b.rfAll[h]
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[s.home]
	dynRead, dynWrite := s.dynReadUSD, s.dynWriteUSD

	entryBytes := c.entry[j]
	smp.cost += dynRead
	smp.cost += snsHome
	if entryBytes > 0 {
		q := c.entry9[j]
		smp.txCarbon += rfHR * q
		smp.cost += q * b.egressHomeRow
	}
	eb := entryBytes
	if eb < 0 {
		eb = 0
	}
	sc.setStart(s.start, s.kvAccess[s.home]+msgOverhead+(b.txBaseHomeRow+eb*b.txPerByteHomeRow))

	for si := c.stepOff[j]; si < c.stepOff[j+1]; si++ {
		n := int(c.node[si])
		flags := c.flags[si]
		var startN float64
		if flags&stepSync != 0 {
			staged := c.staged[si]
			smp.cost += snsHome
			smp.txCarbon += rfHR * (controlBytes / 1e9)
			smp.cost += controlBytes / 1e9 * b.egressHomeRow
			arrive := sc.getReady(n) + msgOverhead + (b.txBaseHomeRow + controlBytes*b.txPerByteHomeRow)
			ld := staged
			if ld < 0 {
				ld = 0
			}
			load := b.kv + (b.txBaseHomeRow + ld*b.txPerByteHomeRow)
			smp.cost += dynRead
			if staged > 0 {
				q := c.aux9[si]
				smp.txCarbon += rfHR * q
				smp.cost += q * b.egressHomeRow
			}
			startN = arrive + load
		} else {
			startN = sc.getStart(n)
		}

		o := int(si) * 3
		finish := startN + c.bndStep[o]
		if finish > smp.latency {
			smp.latency = finish
		}
		smp.execCarbon += c.bndStep[o+1]
		smp.cost += c.bndStep[o+2]

		if flags&stepOutput != 0 {
			if c.out[si] > 0 {
				q := c.out9[si]
				smp.txCarbon += rfHC * q
				smp.cost += q * b.egressHomeCol
			}
			continue
		}
		eHi := c.edgeOff[si+1]
		for ei := c.edgeOff[si]; ei < eHi; ei++ {
			to := int(c.to[ei])
			switch c.kind[ei] {
			case tapeEdgeSkip:
				for k := c.skipOff[ei]; k < c.skipOff[ei+1]; k++ {
					sn := int(c.skipSyncs[k])
					if finish > sc.getReady(sn) {
						sc.setReady(sn, finish)
					}
				}
				smp.cost += dynWrite
			case tapeEdgeStage:
				bb := c.bytes[ei]
				smp.cost += dynWrite
				smp.cost += dynWrite
				tb := bb
				if tb < 0 {
					tb = 0
				}
				if bb > 0 {
					q := c.e9[ei]
					smp.txCarbon += rfHC * q
					smp.cost += q * b.egressHomeCol
				}
				ready := finish + (b.txBaseHomeCol + tb*b.txPerByteHomeCol) + b.kv
				if ready > sc.getReady(to) {
					sc.setReady(to, ready)
				}
			case tapeEdgeDirect:
				smp.cost += b.sns
				total := c.bytes[ei] + controlBytes
				if total > 0 {
					q := c.e9[ei]
					smp.txCarbon += rfAll * q
					smp.cost += q * b.egressAll
				}
				tb := total
				if tb < 0 {
					tb = 0
				}
				arrive := finish + msgOverhead + (b.txBaseAll + tb*b.txPerByteAll)
				if arrive > sc.getStart(to) {
					sc.setStart(to, arrive)
				}
			}
		}
	}
	return smp.latency, smp.cost, smp.execCarbon + smp.txCarbon
}

// bakeBoundSamples continues the metric floor sums from the previous
// block (nil for the first) over the block's samples, latching bndOK
// false if any per-sample floor is negative (see package comment above).
func (s *Snapshot) bakeBoundSamples(c, prev *tapeBlock, h int) {
	c.bndOK = true
	if prev != nil {
		c.preLat, c.preCost, c.preCarb = prev.preLat, prev.preCost, prev.preCarb
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	for j := 0; j < BatchSize; j++ {
		lat, cost, carb := s.boundReplay(c, j, h, sc)
		if lat < 0 || cost < 0 || carb < 0 {
			c.bndOK = false
		}
		c.preLat += lat
		c.preCost += cost
		c.preCarb += carb
	}
}

// boundsOK reports whether the tape's pruning floors are valid: every
// compiled sample was bounded and no floor went negative.
func (td *tapeData) boundsOK() bool {
	return td.n > 0 && td.blocks[len(td.blocks)-1].bndOK
}

// floorSum returns the running sum of the metric's per-sample floors over
// the first n samples; n must be a multiple of BatchSize within the tape.
func (td *tapeData) floorSum(metric BatchMetric, n int) float64 {
	if n == 0 {
		return 0
	}
	c := td.blocks[n/BatchSize-1]
	switch metric {
	case BatchCostMean:
		return c.preCost
	case BatchLatencyMean:
		return c.preLat
	default:
		return c.preCarb
	}
}
