package montecarlo

import (
	"fmt"
	"sync"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/stats"
)

// Snapshot is a compiled, immutable view of an Inputs for a fixed solve
// window: node and region IDs interned to dense ints, execution-duration
// and payload distributions baked into sorted index-addressed slices,
// pricing and network coefficients pre-resolved per region (pair), and
// carbon intensities pre-resolved per (hour, region). The solver compiles
// one Snapshot per solve and evaluates every candidate plan against it,
// so the inner sampling loop performs no interface-method calls and no
// map lookups — it reads only dense slices. Because compilation copies
// everything it needs, a Snapshot is safe for concurrent use by any
// number of goroutines, unlike the Inputs path whose lazily-sorted
// Distributions are not.
//
// Transfer time is modeled as affine in payload size: the compiler probes
// Inputs.TransferSeconds at 0 and 1 GB to recover the intercept and slope
// per region pair. This is exact for the netmodel grid (propagation +
// serialization at fixed bandwidth) and every Inputs implementation in
// the repository.
type Snapshot struct {
	name  string
	seed  int64
	tx    carbon.TransmissionModel
	nodes *dag.Interner

	regions   []region.ID
	regionIdx map[region.ID]int
	nR        int
	home      int
	start     int

	hours    []time.Time
	hourUnix []int64
	// hourSeed[h] is DeriveSeed(seed, "mc/<workflow>/<hourUnix>"),
	// precomputed at compile so no Estimate formats a stream label in the
	// hot loop.
	hourSeed []int64

	// tapes[h] is the hour's lazily compiled sample tape (tape.go); nil
	// when tape replay is disabled and every Estimate takes the untaped
	// reference path.
	tapes []*hourTape

	// scratchPool, snapPool, and accPool recycle the per-Estimate replay
	// scratch, the untaped path's sampling scratch, and series accumulators
	// across the thousands of evaluations one solve performs; bldPool
	// recycles the tape compiler's one-batch scratch across extensions of
	// every hour. All hold state that is fully reset on reuse, so pooling
	// cannot leak one plan's numbers into another's. The pools are
	// allocated apart from the Snapshot: the runtime keeps every used
	// sync.Pool reachable until two collections later, and a pool embedded
	// in the struct would keep the whole snapshot, tapes included, alive
	// that long after its solve.
	scratchPool, snapPool, accPool, bldPool *sync.Pool

	// bnd holds the snapshot-level coefficient minima the exact-pruning
	// bound replay substitutes for region-dependent lookups (bounds.go).
	bnd boundTables

	// Per node (dense index).
	cpuUtil  []float64
	memoryMB []float64
	// execMemKW/execProcKW are the node's carbon.ExecutionFactors — the
	// duration-independent coefficients of the energy model, hoisted so
	// tape replay skips the clamps and divisions of ExecutionEnergyKWh
	// while staying bit-identical to it.
	execMemKW  []float64
	execProcKW []float64
	isSync     []bool
	outEdges   [][]snapEdge
	output     [][]float64 // sorted terminal write-back samples; nil when unobserved

	entryBytes []float64 // sorted entry payload samples

	// Per (node, region): exec[n*nR+r] holds sorted duration samples;
	// execErr[n*nR+r] defers a missing-data error to first use, matching
	// the lazy failure of the Inputs path.
	exec    [][]float64
	execErr []error
	// anyExecErr is true when at least one execErr entry is non-nil; the
	// tape replay loop hoists the per-step error check behind it.
	anyExecErr bool

	// Per region.
	kvAccess []float64
	snsUSD   []float64
	gbSecUSD []float64
	reqUSD   []float64

	// Per region pair [from*nR+to].
	txBase      []float64
	txPerByte   []float64
	egressPerGB []float64

	dynReadUSD  float64 // one read unit against the home table
	dynWriteUSD float64 // one write unit against the home table
	msgOverhead float64

	intensity [][]float64 // [hour][region]
	// txRF bakes the intensity-dependent half of the transmission-carbon
	// model per hour: txRF[h][from*nR+to] = route(from,to) * factor(from,to)
	// exactly as TransmissionModel.Carbon computes it, so a replay edge adds
	// txRF * (bytes/1e9) — the reference's route*factor*gb grouping — without
	// touching the intensity vectors.
	txRF [][]float64 // [hour][from*nR+to]

	tel mcTelemetry
}

// snapEdge is a compiled out-edge.
type snapEdge struct {
	to          int
	toSync      bool
	conditional bool
	prob        float64
	bytes       []float64 // sorted payload samples; nil → zero-byte edge
}

// Compile flattens the Estimator's Inputs into a Snapshot covering the
// given solve instants (carbon beyond now comes from forecasts, exactly
// as in Estimate). regions restricts the interned region set — plans may
// only assign interned regions — and defaults to the full catalogue; the
// home region is always interned.
func (e *Estimator) Compile(regions []region.ID, hours []time.Time, now time.Time) (*Snapshot, error) {
	return Compile(e.in, e.tx, e.seed, regions, hours, now)
}

// Compile builds a Snapshot from any Inputs; see Estimator.Compile.
func Compile(in Inputs, tx carbon.TransmissionModel, seed int64, regions []region.ID, hours []time.Time, now time.Time) (*Snapshot, error) {
	if len(hours) == 0 {
		return nil, fmt.Errorf("montecarlo: snapshot needs at least one solve instant")
	}
	d := in.DAG()
	cat := in.Catalogue()
	if len(regions) == 0 {
		regions = cat.IDs()
	}
	s := &Snapshot{
		name:        d.Name(),
		seed:        seed,
		tx:          tx,
		nodes:       dag.NewInterner(d),
		regionIdx:   make(map[region.ID]int, len(regions)+1),
		hours:       append([]time.Time(nil), hours...),
		msgOverhead: in.MessageOverheadSeconds(),
		tel:         newMCTelemetry(),
	}
	for _, id := range regions {
		if _, dup := s.regionIdx[id]; dup {
			continue
		}
		s.regionIdx[id] = len(s.regions)
		s.regions = append(s.regions, id)
	}
	if _, ok := s.regionIdx[in.Home()]; !ok {
		s.regionIdx[in.Home()] = len(s.regions)
		s.regions = append(s.regions, in.Home())
	}
	s.nR = len(s.regions)
	s.home = s.regionIdx[in.Home()]

	for _, t := range s.hours {
		s.hourUnix = append(s.hourUnix, t.Unix())
	}
	s.hourSeed = make([]int64, len(s.hours))
	for h, u := range s.hourUnix {
		s.hourSeed[h] = simclock.DeriveSeed(seed, fmt.Sprintf("mc/%s/%d", s.name, u)) //caribou:allow hotsprintf runs once per hour at snapshot compile, never in the sampling loop
	}
	s.SetTapes(true)

	n := s.nodes.Len()
	s.scratchPool = &sync.Pool{New: func() any { return newReplayScratch(n) }}
	s.snapPool = &sync.Pool{New: func() any { return newSnapScratch(n) }}
	s.accPool = &sync.Pool{New: func() any { return new(seriesAcc) }}
	s.bldPool = &sync.Pool{New: func() any { return newTapeBuilder(n) }}
	startIdx, _ := s.nodes.Index(d.Start())
	s.start = startIdx
	s.cpuUtil = make([]float64, n)
	s.memoryMB = make([]float64, n)
	s.execMemKW = make([]float64, n)
	s.execProcKW = make([]float64, n)
	s.isSync = make([]bool, n)
	s.outEdges = make([][]snapEdge, n)
	s.output = make([][]float64, n)
	s.exec = make([][]float64, n*s.nR)
	s.execErr = make([]error, n*s.nR)
	for i := 0; i < n; i++ {
		id := s.nodes.Node(i)
		s.cpuUtil[i] = in.CPUUtil(id)
		s.memoryMB[i] = in.MemoryMB(id)
		s.execMemKW[i], s.execProcKW[i] = carbon.ExecutionFactors(s.memoryMB[i], s.cpuUtil[i])
		s.isSync[i] = d.IsSync(id)
		if len(d.Out(id)) == 0 {
			if ob := in.OutputBytes(id); ob != nil {
				s.output[i] = ob.SortedValues()
			}
		}
		for _, edge := range d.Out(id) {
			to, _ := s.nodes.Index(edge.To)
			se := snapEdge{
				to:          to,
				toSync:      d.IsSync(edge.To),
				conditional: edge.Conditional,
				prob:        in.EdgeProbability(edge),
			}
			if bd := in.EdgeBytes(edge.From, edge.To); bd != nil {
				se.bytes = bd.SortedValues()
			}
			s.outEdges[i] = append(s.outEdges[i], se)
		}
		for r := 0; r < s.nR; r++ {
			dist, err := in.ExecDuration(id, s.regions[r])
			if err != nil {
				s.execErr[i*s.nR+r] = err
				s.anyExecErr = true
				continue
			}
			s.exec[i*s.nR+r] = dist.SortedValues()
		}
	}
	s.entryBytes = in.EntryBytes().SortedValues()

	book := in.CostBook()
	s.kvAccess = make([]float64, s.nR)
	s.snsUSD = make([]float64, s.nR)
	s.gbSecUSD = make([]float64, s.nR)
	s.reqUSD = make([]float64, s.nR)
	s.txBase = make([]float64, s.nR*s.nR)
	s.txPerByte = make([]float64, s.nR*s.nR)
	s.egressPerGB = make([]float64, s.nR*s.nR)
	for f := 0; f < s.nR; f++ {
		from := s.regions[f]
		s.kvAccess[f] = in.KVAccessSeconds(from)
		s.snsUSD[f] = book.SNSCost(from, 1)
		p := book.Prices(from)
		s.gbSecUSD[f] = p.LambdaGBSecondUSD
		s.reqUSD[f] = p.LambdaRequestUSD
		for t := 0; t < s.nR; t++ {
			to := s.regions[t]
			base := in.TransferSeconds(from, to, 0)
			s.txBase[f*s.nR+t] = base
			s.txPerByte[f*s.nR+t] = (in.TransferSeconds(from, to, 1e9) - base) / 1e9
			s.egressPerGB[f*s.nR+t] = book.EgressCost(from, to, 1e9)
		}
	}
	s.dynReadUSD = book.DynamoCost(in.Home(), 1, 0)
	s.dynWriteUSD = book.DynamoCost(in.Home(), 0, 1)

	s.intensity = make([][]float64, len(s.hours))
	batch, hasBatch := in.(interface {
		IntensitySeries(r region.ID, hours []time.Time, now time.Time) ([]float64, error)
	})
	for h := range s.hours {
		s.intensity[h] = make([]float64, s.nR)
	}
	for r := 0; r < s.nR; r++ {
		if hasBatch {
			series, err := batch.IntensitySeries(s.regions[r], s.hours, now)
			if err != nil {
				return nil, err
			}
			for h := range s.hours {
				s.intensity[h][r] = series[h]
			}
			continue
		}
		for h, t := range s.hours {
			v, err := in.IntensityAt(s.regions[r], t, now)
			if err != nil {
				return nil, err
			}
			s.intensity[h][r] = v
		}
	}
	s.txRF = make([][]float64, len(s.hours))
	for h := range s.hours {
		rf := make([]float64, s.nR*s.nR)
		inten := s.intensity[h]
		for f := 0; f < s.nR; f++ {
			for t := 0; t < s.nR; t++ {
				factor := tx.InterRegionKWhPerGB
				route := (inten[f] + inten[t]) / 2
				if f == t {
					factor = tx.IntraRegionKWhPerGB
					route = inten[f]
				}
				rf[f*s.nR+t] = route * factor
			}
		}
		s.txRF[h] = rf
	}
	s.bakeBoundTables()
	return s, nil
}

// --- Accessors used by the solver's dense search layer ---

// NumNodes reports the number of interned stages.
func (s *Snapshot) NumNodes() int { return s.nodes.Len() }

// NumRegions reports the number of interned regions.
func (s *Snapshot) NumRegions() int { return s.nR }

// HomeIndex returns the dense index of the home region.
func (s *Snapshot) HomeIndex() int { return s.home }

// Hours returns a copy of the solve instants the snapshot was compiled
// for. Callers that only need the count should use NumHours, which does
// not allocate.
func (s *Snapshot) Hours() []time.Time { return append([]time.Time(nil), s.hours...) }

// NumHours reports the number of compiled solve instants.
func (s *Snapshot) NumHours() int { return len(s.hours) }

// SetTapes enables or disables sample-tape replay (tape.go). Compile
// enables tapes; disabling routes every Estimate through the untaped
// reference path (the two are bit-identical — the toggle exists for
// benchmarks and ablations). Not safe to call concurrently with Estimate:
// flip it before sharing the snapshot.
func (s *Snapshot) SetTapes(on bool) {
	switch {
	case on && s.tapes == nil:
		s.tapes = make([]*hourTape, len(s.hours))
		for i := range s.tapes {
			s.tapes[i] = &hourTape{}
		}
	case !on:
		s.tapes = nil
	}
}

func (s *Snapshot) getScratch() *replayScratch { return s.scratchPool.Get().(*replayScratch) }

func (s *Snapshot) putScratch(sc *replayScratch) { s.scratchPool.Put(sc) }

func (s *Snapshot) getSnapScratch() *snapScratch { return s.snapPool.Get().(*snapScratch) }

func (s *Snapshot) putSnapScratch(sc *snapScratch) { s.snapPool.Put(sc) }

func (s *Snapshot) getAcc() *seriesAcc {
	a := s.accPool.Get().(*seriesAcc)
	a.reset()
	return a
}

func (s *Snapshot) putAcc(a *seriesAcc) { s.accPool.Put(a) }

// HourTime returns the solve instant at hour index h.
func (s *Snapshot) HourTime(h int) time.Time { return s.hours[h] }

// RegionIndex returns the dense index of a region.
func (s *Snapshot) RegionIndex(id region.ID) (int, bool) {
	i, ok := s.regionIdx[id]
	return i, ok
}

// RegionID returns the region at dense index i.
func (s *Snapshot) RegionID(i int) region.ID { return s.regions[i] }

// NodeIndex returns the dense index of a stage.
func (s *Snapshot) NodeIndex(n dag.NodeID) (int, bool) { return s.nodes.Index(n) }

// NodeID returns the stage at dense index i.
func (s *Snapshot) NodeID(i int) dag.NodeID { return s.nodes.Node(i) }

// IntensityIdx returns the pre-resolved grid intensity of region index r
// at hour index h.
func (s *Snapshot) IntensityIdx(h, r int) float64 { return s.intensity[h][r] }

// Regions returns the number of candidate regions in the snapshot; dense
// assignment values range over [0, Regions()).
func (s *Snapshot) Regions() int { return s.nR }

// HomeAssign returns a dense assignment deploying every stage to home.
func (s *Snapshot) HomeAssign() []int {
	out := make([]int, s.nodes.Len())
	for i := range out {
		out[i] = s.home
	}
	return out
}

// PlanOf materializes a dense assignment as a dag.Plan.
func (s *Snapshot) PlanOf(assign []int) dag.Plan {
	p := make(dag.Plan, len(assign))
	for i, r := range assign {
		p[s.nodes.Node(i)] = s.regions[r]
	}
	return p
}

// Assign converts a dag.Plan to a dense assignment.
func (s *Snapshot) Assign(plan dag.Plan) ([]int, error) {
	if len(plan) != s.nodes.Len() {
		return nil, fmt.Errorf("montecarlo: plan covers %d of %d stages", len(plan), s.nodes.Len())
	}
	out := make([]int, s.nodes.Len())
	for i := range out {
		rid, ok := plan[s.nodes.Node(i)]
		if !ok {
			return nil, fmt.Errorf("montecarlo: plan missing stage %q", s.nodes.Node(i))
		}
		r, ok := s.regionIdx[rid]
		if !ok {
			return nil, fmt.Errorf("montecarlo: region %q not interned in snapshot", rid)
		}
		out[i] = r
	}
	return out, nil
}

// Estimate evaluates a dense assignment at hour index h. It mirrors
// Estimator.Estimate draw for draw — the RNG stream, the batched stopping
// rule, and the sampled event sequence are identical — but the sampling
// loop touches only the snapshot's baked slices, so estimates are pure
// functions of (assign, h) and safe to compute concurrently. With tapes
// enabled (the default) the plan is replayed against the hour's compiled
// sample tape; the result is bit-identical to the untaped path either
// way.
func (s *Snapshot) Estimate(assign []int, h int) (*Estimate, error) {
	if err := s.checkArgs(assign, h); err != nil {
		return nil, err
	}
	if s.tapes != nil {
		return s.estimateTaped(assign, h)
	}
	return s.estimateUntaped(assign, h)
}

// EstimateUntaped evaluates a dense assignment through the reference
// draw-per-sample path regardless of the tape setting. It is the parity
// oracle the tape tests pin replay against.
func (s *Snapshot) EstimateUntaped(assign []int, h int) (*Estimate, error) {
	if err := s.checkArgs(assign, h); err != nil {
		return nil, err
	}
	return s.estimateUntaped(assign, h)
}

func (s *Snapshot) checkArgs(assign []int, h int) error {
	if len(assign) != s.nodes.Len() {
		return fmt.Errorf("montecarlo: assignment covers %d of %d stages", len(assign), s.nodes.Len())
	}
	if h < 0 || h >= len(s.hours) {
		return fmt.Errorf("montecarlo: hour index %d outside compiled window [0,%d)", h, len(s.hours))
	}
	for _, r := range assign {
		if r < 0 || r >= s.nR {
			return fmt.Errorf("montecarlo: region index %d outside snapshot", r)
		}
	}
	return nil
}

func (s *Snapshot) estimateUntaped(assign []int, h int) (*Estimate, error) {
	rng := simclock.AcquireRand(s.hourSeed[h])
	defer rng.Release()
	// RNG, scratch, and accumulator come from pools: the untaped
	// reference path is itself called thousands of times per solve in
	// untaped mode, and per-call allocation of the RNG register and the
	// eight scratch slices was its largest constant cost. All are fully
	// reset on reuse (Seed resets the register; sampleOnce resets the
	// scratch per sample; getAcc resets the series), so the arithmetic is
	// unchanged.
	sc := s.getSnapScratch()
	defer s.putSnapScratch(sc)
	acc := s.getAcc()
	defer s.putAcc(acc)
	for acc.samples() < MaxSamples {
		for i := 0; i < BatchSize; i++ {
			smp, err := s.sampleOnce(assign, s.intensity[h], rng, sc)
			if err != nil {
				return nil, err
			}
			acc.add(smp)
		}
		if acc.converged() {
			break
		}
	}
	s.tel.estimates.Inc()
	s.tel.samples.Add(int64(acc.samples()))
	return acc.summarize()
}

// EstimatePlan evaluates a dag.Plan at hour index h.
func (s *Snapshot) EstimatePlan(plan dag.Plan, h int) (*Estimate, error) {
	assign, err := s.Assign(plan)
	if err != nil {
		return nil, err
	}
	return s.Estimate(assign, h)
}

// snapScratch holds per-sample working state, reused across the (up to)
// 2,000 samples of one Estimate call to avoid map and slice churn.
type snapScratch struct {
	executed    []bool
	skipped     []bool
	syncReached []bool
	start       []float64
	finish      []float64
	syncReady   []float64
	syncStaged  []float64
	skipStack   []snapEdge
}

func newSnapScratch(n int) *snapScratch {
	return &snapScratch{
		executed:    make([]bool, n),
		skipped:     make([]bool, n),
		syncReached: make([]bool, n),
		start:       make([]float64, n),
		finish:      make([]float64, n),
		syncReady:   make([]float64, n),
		syncStaged:  make([]float64, n),
	}
}

func (sc *snapScratch) reset() {
	for i := range sc.executed {
		sc.executed[i] = false
		sc.skipped[i] = false
		sc.syncReached[i] = false
		sc.start[i] = 0
		sc.finish[i] = 0
		sc.syncReady[i] = 0
		sc.syncStaged[i] = 0
	}
}

// sampleOnce simulates one invocation under the dense assignment. The
// event sequence and RNG draw order replicate Estimator.sampleOnce
// exactly; only the data representation differs.
func (s *Snapshot) sampleOnce(assign []int, inten []float64, rng *simclock.Rand, sc *snapScratch) (sample, error) {
	sc.reset()
	var smp sample
	home := s.home

	txCarbon := func(from, to int, bytes float64) {
		smp.txCarbon += s.tx.Carbon(inten[from], inten[to], from == to, bytes)
		if bytes > 0 {
			smp.cost += bytes / 1e9 * s.egressPerGB[from*s.nR+to]
		}
	}
	transfer := func(from, to int, bytes float64) float64 {
		if bytes < 0 {
			bytes = 0
		}
		return s.txBase[from*s.nR+to] + bytes*s.txPerByte[from*s.nR+to]
	}

	// Entry: DP fetch at home plus routed entry payload.
	entry := s.start
	entryRegion := assign[entry]
	entryBytes := stats.SampleSorted(s.entryBytes, rng.Float64()) + controlBytes
	smp.cost += s.dynReadUSD
	smp.cost += s.snsUSD[home]
	txCarbon(home, entryRegion, entryBytes)
	entryLatency := s.kvAccess[home] + s.msgOverhead + transfer(home, entryRegion, entryBytes)

	sc.start[entry] = entryLatency
	sc.executed[entry] = true

	for n := 0; n < len(sc.executed); n++ {
		if sc.skipped[n] {
			continue
		}
		if s.isSync[n] {
			if !sc.syncReached[n] {
				sc.skipped[n] = true
				continue
			}
			r := assign[n]
			staged := sc.syncStaged[n]
			// The completing predecessor sends the invoke message
			// (approximated as originating at home, where the
			// annotation table lives); the sync node then loads its
			// staged data from home.
			smp.cost += s.snsUSD[home]
			txCarbon(home, r, controlBytes)
			arrive := sc.syncReady[n] + s.msgOverhead + transfer(home, r, controlBytes)
			load := s.kvAccess[r] + transfer(home, r, staged)
			smp.cost += s.dynReadUSD
			txCarbon(home, r, staged)
			sc.start[n] = arrive + load
			sc.executed[n] = true
		} else if n != entry {
			if !sc.executed[n] {
				continue
			}
		}

		r := assign[n]
		if err := s.execErr[n*s.nR+r]; err != nil {
			return smp, err
		}
		dur := stats.SampleSorted(s.exec[n*s.nR+r], rng.Float64())
		mem := s.memoryMB[n]
		sc.finish[n] = sc.start[n] + dur
		if sc.finish[n] > smp.latency {
			smp.latency = sc.finish[n]
		}
		smp.execCarbon += carbon.ExecutionCarbon(inten[r], mem, dur, s.cpuUtil[n])
		if mem >= 0 && dur >= 0 {
			smp.cost += mem/1024*dur*s.gbSecUSD[r] + s.reqUSD[r]
		}

		out := s.outEdges[n]
		if len(out) == 0 {
			if ob := s.output[n]; ob != nil {
				txCarbon(r, home, stats.SampleSorted(ob, rng.Float64()))
			}
			continue
		}
		for _, edge := range out {
			taken := !edge.conditional || rng.Bool(edge.prob)
			if !taken {
				s.propagateSkip(edge, sc, sc.finish[n])
				smp.cost += s.dynWriteUSD // skip annotation
				continue
			}
			var bytes float64
			if edge.bytes != nil {
				bytes = stats.SampleSorted(edge.bytes, rng.Float64())
			}
			if edge.toSync {
				// Stage data at home and annotate (two writes, added
				// separately to match the Inputs path's rounding).
				smp.cost += s.dynWriteUSD
				smp.cost += s.dynWriteUSD
				txCarbon(r, home, bytes)
				ready := sc.finish[n] + transfer(r, home, bytes) + s.kvAccess[r]
				if ready > sc.syncReady[edge.to] {
					sc.syncReady[edge.to] = ready
				}
				sc.syncStaged[edge.to] += bytes
				sc.syncReached[edge.to] = true
			} else {
				smp.cost += s.snsUSD[r]
				total := bytes + controlBytes
				txCarbon(r, assign[edge.to], total)
				arrive := sc.finish[n] + s.msgOverhead + transfer(r, assign[edge.to], total)
				if arrive > sc.start[edge.to] {
					sc.start[edge.to] = arrive
				}
				sc.executed[edge.to] = true
			}
		}
	}
	return smp, nil
}

// propagateSkip mirrors Estimator.propagateSkip on dense indices. It
// walks the downstream closure iteratively with an explicit stack in the
// same DFS preorder the recursive form visited — recursion depth on a
// long chain of conditional edges is bounded only by the DAG size, so a
// pathological workflow could otherwise exhaust the goroutine stack.
func (s *Snapshot) propagateSkip(edge snapEdge, sc *snapScratch, at float64) {
	stack := append(sc.skipStack[:0], edge)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.toSync {
			if at > sc.syncReady[e.to] && sc.syncReached[e.to] {
				sc.syncReady[e.to] = at
			}
			continue
		}
		if sc.skipped[e.to] {
			continue
		}
		sc.skipped[e.to] = true
		out := s.outEdges[e.to]
		for i := len(out) - 1; i >= 0; i-- {
			stack = append(stack, out[i])
		}
	}
	sc.skipStack = stack[:0]
}
