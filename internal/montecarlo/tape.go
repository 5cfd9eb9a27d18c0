package montecarlo

import (
	"sync"
	"sync/atomic"

	"caribou/internal/carbon"
	"caribou/internal/simclock"
	"caribou/internal/stats"
)

// Sample tapes: common-random-number compilation of the Monte Carlo hot
// path.
//
// Snapshot.Estimate derives its RNG stream from (seed, workflow, hour)
// only, and every uniform draw inside sampleOnce — entry bytes, the
// conditional-edge coin flips, edge/output payload bytes, and the
// exec-duration quantiles — is consumed in an order decided solely by
// those draws, never by the plan under evaluation. The realized control
// flow (which nodes execute, which edges are taken, which sync nodes
// fire, where skips propagate) is therefore a pure function of (seed,
// workflow, hour) too: a plan changes *where* a stage runs, not *what
// the invocation does*.
//
// A tape exploits that: per hour it records, per sample, the resolved
// skeleton — executed nodes in loop order, each with its pre-drawn
// exec-duration quantile, per-edge outcomes with pre-drawn payload
// bytes, pre-summed sync staging totals, and the ordered sync targets of
// every skip propagation. Replaying a plan against the tape performs no
// RNG calls, no stream derivation, no conditional-probability branching,
// and no recursive skip walks — only the region-dependent lookups and
// the exact arithmetic of the reference path, in the exact same order,
// so replayed estimates are bit-identical to untaped ones by
// construction (pinned by the tape parity tests).
//
// Tapes are compiled lazily in BatchSize increments up to MaxSamples:
// the first Estimate that needs samples [0,200) builds them, a later
// plan that converges slower extends the tape, and the extension rule
// means one tape per hour serves every candidate plan the solver
// evaluates — HBSS rounds, exhaustive enumeration, and all hourly
// solves amortize the drawing work that the untaped path repeats per
// plan.
//
// Each extension compiles into its own immutable tapeBlock holding the
// structure-of-arrays columns of exactly its BatchSize samples, with
// block-local offsets. The compiler first emits one batch of records
// into a pooled tapeBuilder, then allocates the block at its exact size
// and fills it; nothing compiled earlier is ever copied, so the bytes an
// extension allocates are the bytes the tape retains. Replay loops are
// already batch-aligned, so sample i is block i/BatchSize, local index
// i%BatchSize.

// tapeStep flags.
const (
	stepSync   uint8 = 1 << iota // step executes as a fired sync node
	stepOutput                   // terminal step with a write-back draw
)

// tapeEdge kinds.
const (
	tapeEdgeSkip   uint8 = iota // conditional edge not taken: skip annotation
	tapeEdgeStage               // taken edge into a sync node: KV staging
	tapeEdgeDirect              // taken pub/sub edge
)

// tapeStep is one executed node of one sample, as the compiler records it
// into the builder's one-batch scratch before the block is laid out.
type tapeStep struct {
	node    int32
	flags   uint8
	u       float64 // pre-drawn exec-duration quantile
	staged  float64 // sync steps: staged bytes, pre-summed in edge order
	out     float64 // stepOutput steps: pre-drawn write-back bytes
	edgeOff int32   // first out-edge in the batch's edge records
}

// tapeEdge is one out-edge outcome of an executed node.
type tapeEdge struct {
	to      int32
	kind    uint8
	bytes   float64 // pre-drawn payload (0 for unobserved edges)
	skipEnd int32   // end of this edge's skip targets in the batch's skipSyncs
}

// tapeData is an immutable compiled prefix of one hour's sample stream:
// n samples in n/BatchSize blocks. Extensions append a block past every
// published header's length and publish a new header, so a reader
// holding an old header only ever touches blocks that were complete when
// it loaded — no locking on the read side.
type tapeData struct {
	n      int
	blocks []*tapeBlock
}

// tapeBlock holds the columns of one BatchSize extension. Step, edge and
// skip offsets are local to the block. The per-(step, region) columns
// bake every plan-independent quantile and coefficient the replay loop
// would otherwise recompute per candidate plan. Every float64 column is
// carved from one arena, the int32 and uint8 columns from one arena
// each.
type tapeBlock struct {
	// Per sample.
	stepOff []int32   // len BatchSize+1: sample j runs steps [stepOff[j], stepOff[j+1])
	entry   []float64 // entry payload incl. control bytes
	entry9  []float64 // entry payload divided by 1e9
	// Per step.
	node    []int32
	flags   []uint8
	staged  []float64 // sync steps: staged bytes
	out     []float64 // stepOutput steps: write-back bytes
	edgeOff []int32   // len(node)+1
	// Per (step, region) triples at (si*nR+r)*3: the resolved
	// exec-duration quantile, the execution energy intermediate
	// memKW·h+procKW·h of carbon.ExecutionCarbonFromFactors (so replay
	// multiplies by intensity and PUE only), and the execution cost term
	// (0 when the reference guard mem>=0 && dur>=0 fails — adding +0 to
	// the non-negative cost accumulator is exact). Interleaving the three
	// keeps a step's whole lookup on one cache line.
	drc []float64
	// aux9 holds the sync step's staged total divided by 1e9 (gigabytes).
	// The quotient is plan-independent, and float division is the single
	// longest-latency operation the replay loop would otherwise perform
	// per step, so it is baked once at compile time — same operands,
	// same operation, bit-identical result.
	aux9 []float64
	// out9 is the output step's write-back draw divided by 1e9. It is a
	// separate column from aux9 because a terminal sync node with an
	// output distribution carries both flags and needs both quotients
	// (e.g. Text2Speech's final censoring stage).
	out9 []float64
	// Per edge.
	to      []int32
	kind    []uint8
	bytes   []float64
	skipOff []int32 // len(to)+1, cumulative into skipSyncs
	// e9 is the edge's transmitted payload in gigabytes: bytes/1e9 for
	// staging edges, (bytes+controlBytes)/1e9 for direct edges (the
	// reference adds the control envelope before converting), 0 for skips.
	e9 []float64
	// skipSyncs lists the sync nodes advanced by skip propagations, in
	// DFS order.
	skipSyncs []int32
	// Pruning bounds (bounds.go), present only when the snapshot's
	// coefficient minima are valid: bndStep holds per-step minimum
	// triples at si*3 {duration, energy contribution, exec cost}, and
	// preLat/preCost/preCarb are the running sums of the per-sample metric
	// floors over every sample of the tape through this block, carried
	// from the previous block as one float chain. bndOK latches false for
	// this and every later block — disabling pruning for the tape, never
	// changing a result — when a per-sample floor goes negative.
	bndStep                  []float64
	preLat, preCost, preCarb float64
	bndOK                    bool
}

// hourTape owns one hour's lazily extended tape. The mutex serializes
// extensions (the RNG stream must advance sequentially); readers load the
// latest immutable prefix through the atomic pointer.
type hourTape struct {
	mu   sync.Mutex
	rng  *simclock.Rand // positioned after the last compiled sample
	data atomic.Pointer[tapeData]
}

// ensure returns a tape prefix holding at least n samples (capped at
// MaxSamples), compiling missing batches under the extension lock. The
// fast path is a single atomic load.
func (t *hourTape) ensure(s *Snapshot, h, n int) *tapeData {
	if d := t.data.Load(); d != nil && d.n >= n {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	if d == nil {
		t.rng = simclock.NewRand(s.hourSeed[h])
		// Full capacity up front: later headers append into the same
		// backing array past every published length.
		d = &tapeData{blocks: make([]*tapeBlock, 0, MaxSamples/BatchSize)}
	}
	if d.n >= n || d.n >= MaxSamples {
		return d
	}
	b := s.bldPool.Get().(*tapeBuilder)
	defer s.bldPool.Put(b)
	blocks := d.blocks
	for len(blocks)*BatchSize < n && len(blocks)*BatchSize < MaxSamples {
		b.startBatch()
		for i := 0; i < BatchSize; i++ {
			s.compileSample(b, t.rng)
		}
		var prev *tapeBlock
		if len(blocks) > 0 {
			prev = blocks[len(blocks)-1]
		}
		blocks = append(blocks, s.layoutBlock(b, prev, h))
		s.tel.tapeBatches.Inc()
		s.tel.tapeSamples.Add(BatchSize)
	}
	nd := &tapeData{n: len(blocks) * BatchSize, blocks: blocks}
	t.data.Store(nd)
	return nd
}

// carve splits the first n elements off an arena, capacity-capped so no
// column can append into its neighbour.
func carve[T any](arena []T, n int) ([]T, []T) {
	return arena[:n:n], arena[n:]
}

// layoutBlock allocates one block at the exact size of the batch the
// builder holds and fills its columns; prev is the previous block (nil
// for the first), whose bound sums the new block carries forward.
func (s *Snapshot) layoutBlock(b *tapeBuilder, prev *tapeBlock, h int) *tapeBlock {
	nR := s.nR
	nS, nE, nK := len(b.steps), len(b.edges), len(b.skipSyncs)
	k := &tapeBlock{}
	ints := make([]int32, BatchSize+1+2*nS+1+2*nE+1+nK)
	k.stepOff, ints = carve(ints, BatchSize+1)
	k.node, ints = carve(ints, nS)
	k.edgeOff, ints = carve(ints, nS+1)
	k.to, ints = carve(ints, nE)
	k.skipOff, k.skipSyncs = carve(ints, nE+1)
	small := make([]uint8, nS+nE)
	k.flags, k.kind = carve(small, nS)
	bounded := s.bnd.ok && (prev == nil || prev.bndOK)
	size := 2*BatchSize + 4*nS + 2*nE + nS*nR*3
	if bounded {
		size += 3 * nS
	}
	f := make([]float64, size)
	k.entry, f = carve(f, BatchSize)
	k.entry9, f = carve(f, BatchSize)
	k.staged, f = carve(f, nS)
	k.out, f = carve(f, nS)
	k.aux9, f = carve(f, nS)
	k.out9, f = carve(f, nS)
	k.bytes, f = carve(f, nE)
	k.e9, f = carve(f, nE)
	k.drc, k.bndStep = carve(f, nS*nR*3)

	copy(k.stepOff, b.stepOff)
	copy(k.entry, b.entry)
	for j, e := range b.entry {
		k.entry9[j] = e / 1e9
	}
	for i := range b.steps {
		st := &b.steps[i]
		k.node[i] = st.node
		k.flags[i] = st.flags
		k.staged[i] = st.staged
		k.out[i] = st.out
		if st.flags&stepSync != 0 {
			k.aux9[i] = st.staged / 1e9
		}
		if st.flags&stepOutput != 0 {
			k.out9[i] = st.out / 1e9
		}
		k.edgeOff[i] = st.edgeOff
		s.bakeStepCols(int(st.node), st.u, k.drc[i*nR*3:(i+1)*nR*3])
	}
	k.edgeOff[nS] = int32(nE)
	for e := range b.edges {
		te := &b.edges[e]
		k.to[e] = te.to
		k.kind[e] = te.kind
		k.bytes[e] = te.bytes
		switch te.kind {
		case tapeEdgeStage:
			k.e9[e] = te.bytes / 1e9
		case tapeEdgeDirect:
			// The reference adds the control envelope first, then
			// converts: (bytes+controlBytes)/1e9 with that exact sum.
			k.e9[e] = (te.bytes + controlBytes) / 1e9
		}
		k.skipOff[e+1] = te.skipEnd
	}
	copy(k.skipSyncs, b.skipSyncs)
	if bounded {
		s.bakeBoundSteps(k, h)
		s.bakeBoundSamples(k, prev, h)
	}
	return k
}

// bakeStepCols resolves one step's region-dependent terms for every
// region into the interleaved drc triples: the duration quantile, the
// energy intermediate of carbon.ExecutionCarbonFromFactors (its exact
// parenthesized subterm, so intensity·kwh·PUE at replay reproduces the
// reference bit for bit), and the guarded execution cost. Regions with a
// deferred exec error keep zero columns — replay raises the error before
// reading them.
func (s *Snapshot) bakeStepCols(n int, u float64, drc []float64) {
	nR := s.nR
	mem := s.memoryMB[n]
	memKW, procKW := s.execMemKW[n], s.execProcKW[n]
	for r := 0; r < nR; r++ {
		if s.execErr[n*nR+r] != nil {
			continue
		}
		d := stats.SampleSorted(s.exec[n*nR+r], u)
		drc[r*3] = d
		cd := d
		if cd < 0 {
			cd = 0
		}
		hours := cd / 3600
		drc[r*3+1] = memKW*hours + procKW*hours
		if mem >= 0 && d >= 0 {
			drc[r*3+2] = mem/1024*d*s.gbSecUSD[r] + s.reqUSD[r]
		}
	}
}

// tapeBuilder is the compiler's reusable scratch: the plan-invariant
// flags that resolve one sample's control flow, and the records of the
// batch being compiled. Builders are pooled per snapshot and hold no
// state between extensions.
type tapeBuilder struct {
	executed    []bool
	skipped     []bool
	syncReached []bool
	staged      []float64
	stack       []snapEdge // explicit DFS stack for skip propagation

	stepOff   []int32 // len samples+1, into steps
	entry     []float64
	steps     []tapeStep
	edges     []tapeEdge
	skipSyncs []int32
}

func newTapeBuilder(n int) *tapeBuilder {
	return &tapeBuilder{
		executed:    make([]bool, n),
		skipped:     make([]bool, n),
		syncReached: make([]bool, n),
		staged:      make([]float64, n),
	}
}

// startBatch empties the batch records, keeping their capacity.
func (b *tapeBuilder) startBatch() {
	b.stepOff = append(b.stepOff[:0], 0)
	b.entry = b.entry[:0]
	b.steps = b.steps[:0]
	b.edges = b.edges[:0]
	b.skipSyncs = b.skipSyncs[:0]
}

func (b *tapeBuilder) reset() {
	for i := range b.executed {
		b.executed[i] = false
		b.skipped[i] = false
		b.syncReached[i] = false
		b.staged[i] = 0
	}
}

// compileSample resolves one sample's skeleton, consuming RNG draws in
// exactly the order of the reference sampleOnce, and appends its records
// to the builder's batch. Only plan-invariant state is tracked;
// everything region-dependent is deferred to replay.
func (s *Snapshot) compileSample(b *tapeBuilder, rng *simclock.Rand) {
	b.reset()
	entryBytes := stats.SampleSorted(s.entryBytes, rng.Float64()) + controlBytes
	entry := s.start
	b.executed[entry] = true

	for n := 0; n < len(b.executed); n++ {
		if b.skipped[n] {
			continue
		}
		var flags uint8
		if s.isSync[n] {
			if !b.syncReached[n] {
				b.skipped[n] = true
				continue
			}
			flags |= stepSync
		} else if n != entry {
			if !b.executed[n] {
				continue
			}
		}

		st := tapeStep{node: int32(n), flags: flags, staged: b.staged[n]}
		st.u = rng.Float64()
		st.edgeOff = int32(len(b.edges))
		out := s.outEdges[n]
		if len(out) == 0 {
			if ob := s.output[n]; ob != nil {
				st.flags |= stepOutput
				st.out = stats.SampleSorted(ob, rng.Float64())
			}
		} else {
			for _, edge := range out {
				taken := !edge.conditional || rng.Bool(edge.prob)
				te := tapeEdge{to: int32(edge.to)}
				if !taken {
					te.kind = tapeEdgeSkip
					b.skipSyncs = b.propagateSkip(s, edge, b.skipSyncs)
				} else {
					if edge.bytes != nil {
						te.bytes = stats.SampleSorted(edge.bytes, rng.Float64())
					}
					if edge.toSync {
						te.kind = tapeEdgeStage
						b.staged[edge.to] += te.bytes
						b.syncReached[edge.to] = true
					} else {
						te.kind = tapeEdgeDirect
						b.executed[edge.to] = true
					}
				}
				te.skipEnd = int32(len(b.skipSyncs))
				b.edges = append(b.edges, te)
			}
		}
		b.steps = append(b.steps, st)
	}

	b.entry = append(b.entry, entryBytes)
	b.stepOff = append(b.stepOff, int32(len(b.steps)))
}

// propagateSkip walks the untaken edge's downstream closure iteratively
// in the same DFS preorder as the recursive reference, marking skipped
// nodes and recording — in visit order — each sync node that was already
// reached at that moment (replay decides whether its readiness actually
// advances, since that comparison is region-dependent).
func (b *tapeBuilder) propagateSkip(s *Snapshot, edge snapEdge, syncs []int32) []int32 {
	stack := append(b.stack[:0], edge)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.toSync {
			if b.syncReached[e.to] {
				syncs = append(syncs, int32(e.to))
			}
			continue
		}
		if b.skipped[e.to] {
			continue
		}
		b.skipped[e.to] = true
		out := s.outEdges[e.to]
		for i := len(out) - 1; i >= 0; i-- {
			stack = append(stack, out[i])
		}
	}
	b.stack = stack[:0]
	return syncs
}

// replayScratch holds the region-dependent per-sample times. Slots hold
// real zeros between samples (reset is a pair of small memclears), so
// every access is a plain indexed load/store with no per-access staleness
// branch — measurably cheaper in the replay loop than the former epoch
// stamping for the node counts real DAGs have.
type replayScratch struct {
	start []float64
	ready []float64
}

func newReplayScratch(n int) *replayScratch {
	return &replayScratch{
		start: make([]float64, n),
		ready: make([]float64, n),
	}
}

// reset zeroes all slots, the state the reference path starts a sample
// with. The fused loop stays an open-coded store sequence — a
// single-slice clear loop would compile to a runtime memclr call, whose
// fixed overhead dwarfs the handful of stores at real DAG sizes and
// shows up at the hundreds of thousands of per-sample resets one solve
// performs.
func (sc *replayScratch) reset() {
	st, rd := sc.start, sc.ready
	for i := range st {
		st[i] = 0
		rd[i] = 0
	}
}

func (sc *replayScratch) getStart(i int) float64 { return sc.start[i] }

func (sc *replayScratch) setStart(i int, v float64) { sc.start[i] = v }

func (sc *replayScratch) getReady(i int) float64 { return sc.ready[i] }

func (sc *replayScratch) setReady(i int, v float64) { sc.ready[i] = v }

// estimateTaped mirrors estimateUntaped's batched stopping rule but
// replays pre-compiled samples instead of drawing them, extending the
// hour's shared tape only as far as this plan's convergence requires.
func (s *Snapshot) estimateTaped(assign []int, h int) (*Estimate, error) {
	t := s.tapes[h]
	sc := s.getScratch()
	defer s.putScratch(sc)
	acc := s.getAcc()
	defer s.putAcc(acc)
	var sc2 *replayScratch
	defer func() {
		if sc2 != nil {
			s.putScratch(sc2)
		}
	}()
	for acc.samples() < MaxSamples {
		n := acc.samples()
		k := t.ensure(s, h, n+BatchSize).blocks[n/BatchSize]
		j := 0
		if !s.anyExecErr {
			// Pairwise interleaved replay: two samples per iteration so
			// their serial float chains overlap (see replaySoAPair). Only
			// when no exec error can fire — error replays take the
			// sequential path so failures surface at the reference step.
			if sc2 == nil {
				sc2 = s.getScratch()
			}
			for ; j+1 < BatchSize; j += 2 {
				a, b, err := s.replaySoAPair(k, j, h, assign, sc, sc2)
				if err != nil {
					return nil, err
				}
				acc.add(a)
				acc.add(b)
			}
		}
		for ; j < BatchSize; j++ {
			smp, err := s.replaySoA(k, j, h, assign, sc)
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
	s.tel.tapeReplays.Add(int64(acc.samples()))
	return acc.summarize()
}

// replaySoA evaluates sample j of block k. The arithmetic and its order
// match sampleOnce exactly; the duration quantile, energy intermediate,
// and execution cost are read from the baked columns instead of being
// recomputed (identical values by construction, see bakeStepCols).
func (s *Snapshot) replaySoA(k *tapeBlock, j, h int, assign []int, sc *replayScratch) (sample, error) {
	sc.reset()
	var smp sample
	home := s.home
	nR := s.nR
	rf := s.txRF[h]

	entry := s.start
	entryRegion := assign[entry]
	entryBytes := k.entry[j]
	smp.cost += s.dynReadUSD
	smp.cost += s.snsUSD[home]
	if entryBytes > 0 {
		// txRF*entry9 is the reference's route*factor*(bytes/1e9) grouping
		// with the quotient baked at compile time.
		q := k.entry9[j]
		smp.txCarbon += rf[home*nR+entryRegion] * q
		smp.cost += q * s.egressPerGB[home*nR+entryRegion]
	}
	eb := entryBytes
	if eb < 0 {
		eb = 0
	}
	// Parenthesized so the transfer term is summed before being added to
	// the access+overhead prefix, exactly as the reference's helper call.
	sc.setStart(entry, s.kvAccess[home]+s.msgOverhead+(s.txBase[home*nR+entryRegion]+eb*s.txPerByte[home*nR+entryRegion]))

	return s.runSoASteps(k, k.stepOff[j], k.stepOff[j+1], h, assign, sc, smp)
}

// runSoASteps replays the step span [lo, hi) of block k on top of smp and
// the current scratch state. It is shared by full replay (span = whole
// sample) and the pair replayer's tails. The body is deliberately closure-free — the
// transfer-latency and transmission-carbon helpers of the reference path
// are inlined against hoisted table slices — so the per-step accumulators
// stay in registers; every addition still happens in the reference order.
func (s *Snapshot) runSoASteps(k *tapeBlock, lo, hi int32, h int, assign []int, sc *replayScratch, smp sample) (sample, error) {
	home := s.home
	nR := s.nR
	inten := s.intensity[h]
	rf := s.txRF[h]
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	hasErr := s.anyExecErr
	// Column headers hoisted into locals so the loop indexes registers
	// instead of re-loading slice headers through the *tapeBlock pointer.
	nodeC, flagsC, stagedC, outC, drcC, aux9C, out9C := k.node, k.flags, k.staged, k.out, k.drc, k.aux9, k.out9
	edgeOffC, toC, kindC, bytesC, skipOffC, e9C := k.edgeOff, k.to, k.kind, k.bytes, k.skipOff, k.e9

	for si := lo; si < hi; si++ {
		n := int(nodeC[si])
		r := assign[n]
		flags := flagsC[si]
		var startN float64
		if flags&stepSync != 0 {
			staged := stagedC[si]
			hr := home*nR + r
			smp.cost += snsHome
			smp.txCarbon += rf[hr] * (controlBytes / 1e9)
			smp.cost += controlBytes / 1e9 * egress[hr]
			arrive := sc.getReady(n) + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
			ld := staged
			if ld < 0 {
				ld = 0
			}
			load := s.kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
			smp.cost += s.dynReadUSD
			if staged > 0 {
				q := aux9C[si]
				smp.txCarbon += rf[hr] * q
				smp.cost += q * egress[hr]
			}
			startN = arrive + load
		} else {
			startN = sc.getStart(n)
		}

		if hasErr {
			if err := s.execErr[n*nR+r]; err != nil {
				return smp, err
			}
		}
		base := (int(si)*nR + r) * 3
		dur := drcC[base]
		finish := startN + dur
		if finish > smp.latency {
			smp.latency = finish
		}
		smp.execCarbon += inten[r] * drcC[base+1] * carbon.PUE
		smp.cost += drcC[base+2]

		if flags&stepOutput != 0 {
			out := outC[si]
			if out > 0 {
				q := out9C[si]
				rh := r*nR + home
				smp.txCarbon += rf[rh] * q
				smp.cost += q * egress[rh]
			}
			continue
		}
		eHi := edgeOffC[si+1]
		for ei := edgeOffC[si]; ei < eHi; ei++ {
			to := int(toC[ei])
			switch kindC[ei] {
			case tapeEdgeSkip:
				for ki := skipOffC[ei]; ki < skipOffC[ei+1]; ki++ {
					sn := int(k.skipSyncs[ki])
					if finish > sc.getReady(sn) {
						sc.setReady(sn, finish)
					}
				}
				smp.cost += s.dynWriteUSD // skip annotation
			case tapeEdgeStage:
				b := bytesC[ei]
				rh := r*nR + home
				smp.cost += s.dynWriteUSD
				smp.cost += s.dynWriteUSD
				tb := b
				if tb < 0 {
					tb = 0
				}
				if b > 0 {
					q := e9C[ei]
					smp.txCarbon += rf[rh] * q
					smp.cost += q * egress[rh]
				}
				ready := finish + (txBase[rh] + tb*txPerByte[rh]) + s.kvAccess[r]
				if ready > sc.getReady(to) {
					sc.setReady(to, ready)
				}
			case tapeEdgeDirect:
				smp.cost += s.snsUSD[r]
				total := bytesC[ei] + controlBytes
				rt := r*nR + assign[to]
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
				if arrive > sc.getStart(to) {
					sc.setStart(to, arrive)
				}
			}
		}
	}
	return smp, nil
}

// replaySoAPair replays samples j and j+1 of block k together, executing one
// step of each per loop iteration. Every addition, comparison, and their
// order within each sample is exactly replaySoA's — the two samples are
// data-independent, so interleaving their instruction streams changes no
// result bit. It exists because the replay loop is bound by the latency of
// its serial accumulator chains, not by issue width; overlapping two
// independent chains recovers much of the stalled pipeline. Tails beyond
// the common step count drain through runSoASteps. Callers must guarantee
// no exec errors exist (s.anyExecErr false): the pair body omits the
// per-step error check, so error surfacing stays on the sequential path.
func (s *Snapshot) replaySoAPair(k *tapeBlock, j, h int, assign []int, scA, scB *replayScratch) (sample, sample, error) {
	scA.reset()
	scB.reset()
	var smpA, smpB sample
	home := s.home
	nR := s.nR
	rf := s.txRF[h]
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	kvAccess := s.kvAccess
	dynRead := s.dynReadUSD

	entry := s.start
	entryRegion := assign[entry]
	he := home*nR + entryRegion
	entryA, entryB := k.entry[j], k.entry[j+1]
	smpA.cost += dynRead
	smpA.cost += snsHome
	smpB.cost += dynRead
	smpB.cost += snsHome
	if entryA > 0 {
		q := k.entry9[j]
		smpA.txCarbon += rf[he] * q
		smpA.cost += q * egress[he]
	}
	if entryB > 0 {
		q := k.entry9[j+1]
		smpB.txCarbon += rf[he] * q
		smpB.cost += q * egress[he]
	}
	ebA, ebB := entryA, entryB
	if ebA < 0 {
		ebA = 0
	}
	if ebB < 0 {
		ebB = 0
	}
	scA.setStart(entry, kvAccess[home]+msgOverhead+(txBase[he]+ebA*txPerByte[he]))
	scB.setStart(entry, kvAccess[home]+msgOverhead+(txBase[he]+ebB*txPerByte[he]))

	return s.runSoAStepsPair(k, k.stepOff[j], k.stepOff[j+1], k.stepOff[j+1], k.stepOff[j+2], h, assign, scA, scB, smpA, smpB)
}

// runSoAStepsPair is runSoASteps for two independent spans of block k at
// once: one step of each per iteration, each span's arithmetic in exactly
// the sequential order. Tails beyond the common step count drain through
// runSoASteps. Callers must guarantee no exec errors exist.
func (s *Snapshot) runSoAStepsPair(k *tapeBlock, siA, hiA, siB, hiB int32, h int, assign []int, scA, scB *replayScratch, smpA, smpB sample) (sample, sample, error) {
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

	for siA < hiA && siB < hiB {
		{ // one step of sample A
			n := int(nodeC[siA])
			r := assign[n]
			flags := flagsC[siA]
			var startN float64
			if flags&stepSync != 0 {
				staged := stagedC[siA]
				hr := home*nR + r
				smpA.cost += snsHome
				smpA.txCarbon += rf[hr] * (controlBytes / 1e9)
				smpA.cost += controlBytes / 1e9 * egress[hr]
				arrive := scA.getReady(n) + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
				ld := staged
				if ld < 0 {
					ld = 0
				}
				load := kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
				smpA.cost += dynRead
				if staged > 0 {
					q := aux9C[siA]
					smpA.txCarbon += rf[hr] * q
					smpA.cost += q * egress[hr]
				}
				startN = arrive + load
			} else {
				startN = scA.getStart(n)
			}
			base := (int(siA)*nR + r) * 3
			finish := startN + drcC[base]
			if finish > smpA.latency {
				smpA.latency = finish
			}
			smpA.execCarbon += inten[r] * drcC[base+1] * carbon.PUE
			smpA.cost += drcC[base+2]
			if flags&stepOutput != 0 {
				out := outC[siA]
				if out > 0 {
					q := out9C[siA]
					rh := r*nR + home
					smpA.txCarbon += rf[rh] * q
					smpA.cost += q * egress[rh]
				}
			} else {
				eHi := edgeOffC[siA+1]
				for ei := edgeOffC[siA]; ei < eHi; ei++ {
					to := int(toC[ei])
					switch kindC[ei] {
					case tapeEdgeSkip:
						for ki := skipOffC[ei]; ki < skipOffC[ei+1]; ki++ {
							sn := int(skipS[ki])
							if finish > scA.getReady(sn) {
								scA.setReady(sn, finish)
							}
						}
						smpA.cost += dynWrite // skip annotation
					case tapeEdgeStage:
						b := bytesC[ei]
						rh := r*nR + home
						smpA.cost += dynWrite
						smpA.cost += dynWrite
						tb := b
						if tb < 0 {
							tb = 0
						}
						if b > 0 {
							q := e9C[ei]
							smpA.txCarbon += rf[rh] * q
							smpA.cost += q * egress[rh]
						}
						ready := finish + (txBase[rh] + tb*txPerByte[rh]) + kvAccess[r]
						if ready > scA.getReady(to) {
							scA.setReady(to, ready)
						}
					case tapeEdgeDirect:
						smpA.cost += snsUSD[r]
						total := bytesC[ei] + controlBytes
						rt := r*nR + assign[to]
						if total > 0 {
							q := e9C[ei]
							smpA.txCarbon += rf[rt] * q
							smpA.cost += q * egress[rt]
						}
						tb := total
						if tb < 0 {
							tb = 0
						}
						arrive := finish + msgOverhead + (txBase[rt] + tb*txPerByte[rt])
						if arrive > scA.getStart(to) {
							scA.setStart(to, arrive)
						}
					}
				}
			}
			siA++
		}
		{ // one step of sample B — mirror of the block above
			n := int(nodeC[siB])
			r := assign[n]
			flags := flagsC[siB]
			var startN float64
			if flags&stepSync != 0 {
				staged := stagedC[siB]
				hr := home*nR + r
				smpB.cost += snsHome
				smpB.txCarbon += rf[hr] * (controlBytes / 1e9)
				smpB.cost += controlBytes / 1e9 * egress[hr]
				arrive := scB.getReady(n) + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
				ld := staged
				if ld < 0 {
					ld = 0
				}
				load := kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
				smpB.cost += dynRead
				if staged > 0 {
					q := aux9C[siB]
					smpB.txCarbon += rf[hr] * q
					smpB.cost += q * egress[hr]
				}
				startN = arrive + load
			} else {
				startN = scB.getStart(n)
			}
			base := (int(siB)*nR + r) * 3
			finish := startN + drcC[base]
			if finish > smpB.latency {
				smpB.latency = finish
			}
			smpB.execCarbon += inten[r] * drcC[base+1] * carbon.PUE
			smpB.cost += drcC[base+2]
			if flags&stepOutput != 0 {
				out := outC[siB]
				if out > 0 {
					q := out9C[siB]
					rh := r*nR + home
					smpB.txCarbon += rf[rh] * q
					smpB.cost += q * egress[rh]
				}
			} else {
				eHi := edgeOffC[siB+1]
				for ei := edgeOffC[siB]; ei < eHi; ei++ {
					to := int(toC[ei])
					switch kindC[ei] {
					case tapeEdgeSkip:
						for ki := skipOffC[ei]; ki < skipOffC[ei+1]; ki++ {
							sn := int(skipS[ki])
							if finish > scB.getReady(sn) {
								scB.setReady(sn, finish)
							}
						}
						smpB.cost += dynWrite // skip annotation
					case tapeEdgeStage:
						b := bytesC[ei]
						rh := r*nR + home
						smpB.cost += dynWrite
						smpB.cost += dynWrite
						tb := b
						if tb < 0 {
							tb = 0
						}
						if b > 0 {
							q := e9C[ei]
							smpB.txCarbon += rf[rh] * q
							smpB.cost += q * egress[rh]
						}
						ready := finish + (txBase[rh] + tb*txPerByte[rh]) + kvAccess[r]
						if ready > scB.getReady(to) {
							scB.setReady(to, ready)
						}
					case tapeEdgeDirect:
						smpB.cost += snsUSD[r]
						total := bytesC[ei] + controlBytes
						rt := r*nR + assign[to]
						if total > 0 {
							q := e9C[ei]
							smpB.txCarbon += rf[rt] * q
							smpB.cost += q * egress[rt]
						}
						tb := total
						if tb < 0 {
							tb = 0
						}
						arrive := finish + msgOverhead + (txBase[rt] + tb*txPerByte[rt])
						if arrive > scB.getStart(to) {
							scB.setStart(to, arrive)
						}
					}
				}
			}
			siB++
		}
	}
	var err error
	if siA < hiA {
		if smpA, err = s.runSoASteps(k, siA, hiA, h, assign, scA, smpA); err != nil {
			return smpA, smpB, err
		}
	}
	if siB < hiB {
		if smpB, err = s.runSoASteps(k, siB, hiB, h, assign, scB, smpB); err != nil {
			return smpA, smpB, err
		}
	}
	return smpA, smpB, nil
}
