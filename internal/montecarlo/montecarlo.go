// Package montecarlo estimates end-to-end latency, cost, and carbon of a
// deployment plan for a (possibly conditional) workflow DAG by Monte Carlo
// simulation (§7.1): edge invocation probabilities are sampled to decide
// which branches run, node execution times and transmission latencies are
// drawn from learned distributions, and the critical path of the realized
// partial DAG yields the end-to-end time. Sampling proceeds in batches of
// 200 until the coefficients of variation of latency, cost, and carbon all
// drop below 0.05, or 2,000 samples are reached. The distribution means
// are the "average case" used for plan ordering; the 95th percentiles are
// the "tail case" checked against QoS tolerances.
package montecarlo

import (
	"fmt"
	"math"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/stats"
	"caribou/internal/telemetry"
)

// Stopping rule constants from §7.1.
const (
	BatchSize  = 200
	MaxSamples = 2000
	TargetCV   = 0.05
)

// controlBytes is the fixed size of orchestration messages (invoke
// notifications, annotations) added on top of payload bytes. Shared by
// the Inputs path, the snapshot path, and the tape compiler so all three
// model the same wire traffic.
const controlBytes = 2e3

// Inputs supplies the learned and external metrics the estimator samples
// from; *metrics.Manager implements it.
type Inputs interface {
	DAG() *dag.DAG
	Home() region.ID
	Catalogue() *region.Catalogue
	ExecDuration(node dag.NodeID, r region.ID) (*stats.Distribution, error)
	CPUUtil(node dag.NodeID) float64
	MemoryMB(node dag.NodeID) float64
	EdgeBytes(from, to dag.NodeID) *stats.Distribution
	EntryBytes() *stats.Distribution
	OutputBytes(node dag.NodeID) *stats.Distribution
	EdgeProbability(e dag.Edge) float64
	TransferSeconds(from, to region.ID, bytes float64) float64
	MessageOverheadSeconds() float64
	KVAccessSeconds(from region.ID) float64
	CostBook() *pricing.Book
	// IntensityAt returns the measured or forecast grid intensity of
	// region r at t, given the solve time now.
	IntensityAt(r region.ID, t time.Time, now time.Time) (float64, error)
}

// Estimate summarizes the sampled distributions.
type Estimate struct {
	Samples int
	// Latency in seconds, cost in USD, carbon in grams CO2-eq per
	// invocation.
	LatencyMean, LatencyP95 float64
	CostMean, CostP95       float64
	CarbonMean, CarbonP95   float64
	// ExecCarbonMean and TxCarbonMean split the carbon mean into
	// execution and transmission components (Fig 8).
	ExecCarbonMean, TxCarbonMean float64
	Converged                    bool
}

// Estimator runs plan evaluations against fixed inputs.
type Estimator struct {
	in   Inputs
	tx   carbon.TransmissionModel
	seed int64
	tel  mcTelemetry
}

// mcTelemetry holds the sampling counters, captured at construction
// (Estimator.New or Compile); nil-safe no-ops when telemetry is off. The
// counters are bumped once per Estimate call — never inside the sampling
// loop — so the instrumented hot path is unchanged.
type mcTelemetry struct {
	estimates *telemetry.Counter
	samples   *telemetry.Counter
	// Tape accounting (tape.go): batches/samples compiled onto per-hour
	// tapes, and samples evaluated by replay. tapeSamples counts drawing
	// work done once per hour; tapeReplays counts evaluations served from
	// it — their ratio is the common-random-number amortization factor.
	tapeBatches *telemetry.Counter
	tapeSamples *telemetry.Counter
	tapeReplays *telemetry.Counter
	// Batch-replay accounting (batch.go): shared sweeps run, candidate
	// plans evaluated through them, and candidates abandoned mid-sweep by
	// the exact bound-based pruning rule.
	batchSweeps      *telemetry.Counter
	batchPlans       *telemetry.Counter
	prunedCandidates *telemetry.Counter
}

func newMCTelemetry() mcTelemetry {
	rec := telemetry.Default()
	return mcTelemetry{
		estimates:        rec.Counter("montecarlo.estimates"),
		samples:          rec.Counter("montecarlo.samples"),
		tapeBatches:      rec.Counter("montecarlo.tape_batches"),
		tapeSamples:      rec.Counter("montecarlo.tape_samples"),
		tapeReplays:      rec.Counter("montecarlo.tape_replays"),
		batchSweeps:      rec.Counter("montecarlo.batch_sweeps"),
		batchPlans:       rec.Counter("montecarlo.batch_plans"),
		prunedCandidates: rec.Counter("montecarlo.pruned_candidates"),
	}
}

// New returns an estimator using the given transmission-carbon model.
func New(in Inputs, tx carbon.TransmissionModel, seed int64) *Estimator {
	return &Estimator{in: in, tx: tx, seed: seed, tel: newMCTelemetry()}
}

// SetTransmissionModel swaps the transmission-carbon model (§9.3 sweeps).
func (e *Estimator) SetTransmissionModel(tx carbon.TransmissionModel) { e.tx = tx }

// Estimate evaluates plan as if in effect at `at`, solving at `now`
// (carbon beyond now comes from forecasts).
func (e *Estimator) Estimate(plan dag.Plan, at, now time.Time) (*Estimate, error) {
	d := e.in.DAG()
	if len(plan) != d.Len() {
		return nil, fmt.Errorf("montecarlo: plan covers %d of %d stages", len(plan), d.Len())
	}
	intensity := make(map[region.ID]float64, len(plan)+1)
	need := append(plan.Regions(), e.in.Home())
	for _, r := range need {
		if _, ok := intensity[r]; ok {
			continue
		}
		v, err := e.in.IntensityAt(r, at, now)
		if err != nil {
			return nil, err
		}
		intensity[r] = v
	}

	rng := simclock.DeriveRand(e.seed, fmt.Sprintf("mc/%s/%d", d.Name(), at.Unix()))
	var acc seriesAcc
	for acc.samples() < MaxSamples {
		for i := 0; i < BatchSize; i++ {
			s, err := e.sampleOnce(plan, intensity, rng)
			if err != nil {
				return nil, err
			}
			acc.add(s)
		}
		if acc.converged() {
			break
		}
	}
	e.tel.estimates.Inc()
	e.tel.samples.Add(int64(acc.samples()))
	return acc.summarize()
}

// seriesAcc accumulates the per-sample series and applies the batched
// stopping rule. The interface-backed Estimator and the compiled Snapshot
// share it so both paths summarize with identical arithmetic.
type seriesAcc struct {
	lat, cost, carb, execC, txC []float64
	done                        bool
	// Means computed by the last converged() call, valid while the series
	// still holds meanAt samples. summarize reuses them instead of
	// re-averaging the three largest series: stats.Mean is deterministic,
	// so the cached values are bit-identical to a recomputation.
	latMean, costMean, carbMean float64
	meanAt                      int
}

func (a *seriesAcc) samples() int { return len(a.lat) }

// reset clears the accumulator for reuse, keeping the slice capacity so a
// pooled accumulator stops allocating after its first estimate.
func (a *seriesAcc) reset() {
	a.lat = a.lat[:0]
	a.cost = a.cost[:0]
	a.carb = a.carb[:0]
	a.execC = a.execC[:0]
	a.txC = a.txC[:0]
	a.done = false
	a.meanAt = 0
}

func (a *seriesAcc) add(s sample) {
	if a.lat == nil {
		// Most estimates converge within the first batch; reserving it up
		// front avoids regrowing five slices through the hot loop.
		a.lat = make([]float64, 0, BatchSize)
		a.cost = make([]float64, 0, BatchSize)
		a.carb = make([]float64, 0, BatchSize)
		a.execC = make([]float64, 0, BatchSize)
		a.txC = make([]float64, 0, BatchSize)
	}
	a.lat = append(a.lat, s.latency)
	a.cost = append(a.cost, s.cost)
	a.carb = append(a.carb, s.execCarbon+s.txCarbon)
	a.execC = append(a.execC, s.execCarbon)
	a.txC = append(a.txC, s.txCarbon)
}

func (a *seriesAcc) converged() bool {
	var latCV, costCV, carbCV float64
	a.latMean, latCV = meanCV(a.lat)
	a.costMean, costCV = meanCV(a.cost)
	a.carbMean, carbCV = meanCV(a.carb)
	a.meanAt = len(a.lat)
	if latCV < TargetCV && costCV < TargetCV && carbCV < TargetCV {
		a.done = true
	}
	return a.done
}

func (a *seriesAcc) summarize() (*Estimate, error) {
	est := &Estimate{
		Samples:        len(a.lat),
		Converged:      a.done,
		ExecCarbonMean: stats.Mean(a.execC),
		TxCarbonMean:   stats.Mean(a.txC),
	}
	if a.meanAt == len(a.lat) {
		est.LatencyMean, est.CostMean, est.CarbonMean = a.latMean, a.costMean, a.carbMean
	} else {
		est.LatencyMean = stats.Mean(a.lat)
		est.CostMean = stats.Mean(a.cost)
		est.CarbonMean = stats.Mean(a.carb)
	}
	// summarize is the accumulator's last read before reset, so the
	// in-place percentile (identical values, permuted storage) is safe.
	var err error
	if est.LatencyP95, err = stats.PercentileInPlace(a.lat, 95); err != nil {
		return nil, err
	}
	if est.CostP95, err = stats.PercentileInPlace(a.cost, 95); err != nil {
		return nil, err
	}
	if est.CarbonP95, err = stats.PercentileInPlace(a.carb, 95); err != nil {
		return nil, err
	}
	return est, nil
}

// meanCV returns the series mean and the coefficient of variation of the
// *estimated mean* (standard error over mean): the convergence criterion
// for the batched sampling. The mean is returned so callers can cache it
// for the summary instead of averaging the series again.
func meanCV(xs []float64) (mean, cv float64) {
	m, v := stats.MeanVariance(xs)
	if m == 0 {
		return m, 0
	}
	se := math.Sqrt(v) / math.Sqrt(float64(len(xs)))
	return m, math.Abs(se / m)
}

type sample struct {
	latency    float64
	cost       float64
	execCarbon float64
	txCarbon   float64
}

// sampleOnce simulates one invocation under the plan. It mirrors the
// executor's structure: entry routing, direct pub/sub edges,
// KV staging and join for synchronization nodes, terminal write-back.
func (e *Estimator) sampleOnce(plan dag.Plan, intensity map[region.ID]float64, rng *simclock.Rand) (sample, error) {
	d := e.in.DAG()
	home := e.in.Home()
	book := e.in.CostBook()
	msgOverhead := e.in.MessageOverheadSeconds()
	var s sample

	txCarbon := func(from, to region.ID, bytes float64) {
		s.txCarbon += e.tx.Carbon(intensity[from], intensity[to], from == to, bytes)
		s.cost += book.EgressCost(from, to, bytes)
	}
	sns := func(r region.ID) { s.cost += book.SNSCost(r, 1) }
	kvRead := func() { s.cost += book.DynamoCost(home, 1, 0) }
	kvWrite := func() { s.cost += book.DynamoCost(home, 0, 1) }

	// executed[n] true → finish[n] holds its completion time.
	executed := make(map[dag.NodeID]bool, d.Len())
	finish := make(map[dag.NodeID]float64, d.Len())
	// For sync nodes: latest data-ready time among reached edges and
	// total staged bytes.
	syncReady := make(map[dag.NodeID]float64)
	syncStaged := make(map[dag.NodeID]float64)
	syncReached := make(map[dag.NodeID]bool)
	skipped := make(map[dag.NodeID]bool)

	// Entry: DP fetch at home plus routed entry payload.
	entry := d.Start()
	entryRegion := plan[entry]
	entryBytes := e.in.EntryBytes().Sample(rng.Float64()) + controlBytes
	kvRead()
	sns(home)
	txCarbon(home, entryRegion, entryBytes)
	entryLatency := e.in.KVAccessSeconds(home) + msgOverhead + e.in.TransferSeconds(home, entryRegion, entryBytes)

	start := make(map[dag.NodeID]float64, d.Len())
	start[entry] = entryLatency
	executed[entry] = true

	for _, n := range d.Nodes() {
		if skipped[n] {
			continue
		}
		if d.IsSync(n) {
			if !syncReached[n] {
				skipped[n] = true
				continue
			}
			r := plan[n]
			staged := syncStaged[n]
			// The completing predecessor sends the invoke message
			// (approximated as originating at home, where the
			// annotation table lives); the sync node then loads its
			// staged data from home.
			sns(home)
			txCarbon(home, r, controlBytes)
			arrive := syncReady[n] + msgOverhead + e.in.TransferSeconds(home, r, controlBytes)
			load := e.in.KVAccessSeconds(r) + e.in.TransferSeconds(home, r, staged)
			kvRead()
			txCarbon(home, r, staged)
			start[n] = arrive + load
			executed[n] = true
		} else if n != entry {
			if !executed[n] {
				continue
			}
		}

		r := plan[n]
		dist, err := e.in.ExecDuration(n, r)
		if err != nil {
			return s, err
		}
		dur := dist.Sample(rng.Float64())
		util := e.in.CPUUtil(n)
		mem := e.in.MemoryMB(n)
		finish[n] = start[n] + dur
		if finish[n] > s.latency {
			s.latency = finish[n]
		}
		s.execCarbon += carbon.ExecutionCarbon(intensity[r], mem, dur, util)
		s.cost += book.ExecutionCost(r, mem, dur)

		out := d.Out(n)
		if len(out) == 0 {
			if ob := e.in.OutputBytes(n); ob != nil {
				txCarbon(r, home, ob.Sample(rng.Float64()))
			}
			continue
		}
		for _, edge := range out {
			taken := !edge.Conditional || rng.Bool(e.in.EdgeProbability(edge))
			if !taken {
				e.propagateSkip(edge, skipped, syncReached, syncReady, finish[n])
				kvWrite() // skip annotation
				continue
			}
			var bytes float64
			if bd := e.in.EdgeBytes(edge.From, edge.To); bd != nil {
				bytes = bd.Sample(rng.Float64())
			}
			if d.IsSync(edge.To) {
				// Stage data at home and annotate.
				kvWrite()
				kvWrite()
				txCarbon(r, home, bytes)
				ready := finish[n] + e.in.TransferSeconds(r, home, bytes) + e.in.KVAccessSeconds(r)
				if ready > syncReady[edge.To] {
					syncReady[edge.To] = ready
				}
				syncStaged[edge.To] += bytes
				syncReached[edge.To] = true
			} else {
				sns(r)
				total := bytes + controlBytes
				txCarbon(r, plan[edge.To], total)
				arrive := finish[n] + msgOverhead + e.in.TransferSeconds(r, plan[edge.To], total)
				if arrive > start[edge.To] {
					start[edge.To] = arrive
				}
				executed[edge.To] = true
			}
		}
	}
	return s, nil
}

// propagateSkip marks the downstream effect of an untaken edge: non-sync
// descendants are skipped; edges into sync nodes count as annotated
// skipped, which here simply means they do not contribute to readiness.
// The walk is iterative with an explicit stack in the recursive form's
// DFS preorder — recursion depth on a long chain of conditional edges is
// bounded only by the DAG size, so a pathological workflow could
// otherwise exhaust the goroutine stack.
func (e *Estimator) propagateSkip(edge dag.Edge, skipped map[dag.NodeID]bool, syncReached map[dag.NodeID]bool, syncReady map[dag.NodeID]float64, at float64) {
	d := e.in.DAG()
	stack := make([]dag.Edge, 0, 16)
	stack = append(stack, edge)
	for len(stack) > 0 {
		ed := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.IsSync(ed.To) {
			// Annotation time could delay firing when the skip arrives
			// last; model by advancing readiness without marking reached.
			if at > syncReady[ed.To] && syncReached[ed.To] {
				syncReady[ed.To] = at
			}
			continue
		}
		if skipped[ed.To] {
			continue
		}
		skipped[ed.To] = true
		out := d.Out(ed.To)
		for i := len(out) - 1; i >= 0; i-- {
			stack = append(stack, out[i])
		}
	}
}
