package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/eval"
	"caribou/internal/executor"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// solveSpec is one daily-solve workload: a workflow homed in a region,
// learned for one day on the evaluation-four catalogue.
type solveSpec struct {
	name string
	wl   func() *workloads.Workload
	home region.ID
}

var (
	// dailySpec is the paper's §9.7 unit: Text2Speech from us-east-1.
	// Every estimate converges at the first batch boundary, so pruning
	// never fires.
	dailySpec = solveSpec{name: "solve-daily", wl: workloads.Text2SpeechCensoring, home: region.USEast1}
	// heavySpec is the heavy-tail workload from ca-central-1, where
	// bound-based pruning abandons thousands of lanes per solve.
	heavySpec = solveSpec{name: "solve-heavytail", wl: workloads.HeavyTailAnalytics, home: region.CACentral1}
)

// inputSeeds is how many distinct input sets the solve and figure
// workloads have; the run seed is folded onto them so every run's output
// can be checked against a recorded hash.
const inputSeeds = 16

func foldSeed(seed, base int64) int64 {
	m := seed % inputSeeds
	if m < 0 {
		m += inputSeeds
	}
	return base + m
}

// solveSeed maps a run seed onto the solve workloads' input seeds 1..16.
func solveSeed(seed int64) int64 { return foldSeed(seed, 1) }

// solveDataSeed fixes the problem a solve workload poses: the carbon
// traces and the learned day. The run seed varies the Monte Carlo draws
// and the HBSS search instead, so every seed solves the same problem
// and the work per solve stays within a few percent across seeds.
const solveDataSeed = 1

// learnInvocations is the size of the learned day (one every 5 min for
// ~17 h), as in the repository's solver benchmarks.
const learnInvocations = 200

// solveInputs is a learned day ready to solve.
type solveInputs struct {
	est *montecarlo.Estimator
	s   *solver.Solver
	now time.Time
}

// buildSolve synthesizes carbon traces, runs one learned day on the
// simulated platform, refreshes forecasts and builds an estimator and
// solver seeded with seed. Each step is a span under parent when tr is
// non-nil.
func buildSolve(spec solveSpec, seed int64, tr *tracer, parent spanRef) (*solveInputs, error) {
	start := eval.EvalStart
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		return nil, err
	}
	sp := tr.begin("carbon.synth", parent)
	src, err := carbon.NewSyntheticSource(solveDataSeed, start.Add(-8*24*time.Hour), start.Add(2*24*time.Hour))
	sp.end()
	if err != nil {
		return nil, err
	}
	wl := spec.wl()
	net := netmodel.New(cat)
	mm := metrics.New(wl.DAG, spec.home, cat, net, src, pricing.DefaultBook())

	sp = tr.begin("executor.learn_day", parent)
	sched := simclock.New(start)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: net, Seed: solveDataSeed})
	if err != nil {
		return nil, err
	}
	eng, err := executor.New(executor.Options{
		Platform: p, Workload: wl, Home: spec.home, Seed: solveDataSeed,
		OnComplete: func(r *platform.InvocationRecord) { mm.Ingest(r) },
	})
	if err != nil {
		return nil, err
	}
	if err := eng.DeployHome(); err != nil {
		return nil, err
	}
	for i := 0; i < learnInvocations; i++ {
		eng.InvokeAt(start.Add(time.Duration(i)*5*time.Minute), workloads.Small, nil)
	}
	sched.Run()
	sp.end()

	now := start.Add(24 * time.Hour)
	sp = tr.begin("metrics.refresh_forecasts", parent)
	err = mm.RefreshForecasts(now)
	sp.end()
	if err != nil {
		return nil, err
	}
	est := montecarlo.New(mm, carbon.BestCase(), seed)
	s, err := solver.New(solver.Config{
		Inputs: mm, Estimator: est,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &solveInputs{est: est, s: s, now: now}, nil
}

// setupSolve builds the inputs solveSetupReps times and returns the last
// build with the median build time.
func setupSolve(spec solveSpec, seed int64, tr *tracer) (*solveInputs, float64, error) {
	var in *solveInputs
	var times []float64
	for i := 0; i < solveSetupReps; i++ {
		// Each rep starts from the same heap: the previous build's
		// garbage is collected outside the timed part.
		runtime.GC()
		sp := tr.begin("setup", spanRef{})
		t0 := wallNow()
		var err error
		in, err = buildSolve(spec, seed, tr, sp)
		times = append(times, since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, 0, err
		}
	}
	return in, median(times), nil
}

// solveOnce runs one daily solve and digests its 24 plans and estimates.
func (in *solveInputs) solveOnce() (string, error) {
	plans, results, err := in.s.SolveHourly(in.now, in.now)
	if err != nil {
		return "", err
	}
	return planDigest(plans, results), nil
}

// planDigest hashes the 24 hourly plans and the bits of each hour's
// estimate means.
func planDigest(plans dag.HourlyPlans, results []solver.Result) string {
	h := sha256.New()
	for hr, p := range plans {
		fmt.Fprintf(h, "%d %s\n", hr, p.Key())
	}
	for _, r := range results {
		e := r.Estimate
		fmt.Fprintf(h, "%x %x %x\n", math.Float64bits(e.CarbonMean), math.Float64bits(e.LatencyMean), math.Float64bits(e.CostMean))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRecorded compares the first solve's digest with the recorded
// hash for the input seed.
func checkRecorded(o *outcome, workload string, inSeed int64, got string) {
	want, ok := expectedHash(workload, inSeed)
	if !ok {
		o.fail("%s: no recorded hash for input seed %d", workload, inSeed)
	} else if got != want {
		o.fail("%s: plans hash %s, recorded %s", workload, got[:12], want[:12])
	}
}

// repeats counts solves whose digest differs from the first one's.
type repeats struct{ differ int }

func (r *repeats) check(first, got string) {
	if got != first {
		r.differ++
	}
}

func (r *repeats) report(o *outcome, workload string) {
	if r.differ > 0 {
		o.fail("%s: %d solves returned plans that differ from the first", workload, r.differ)
	}
}

func runSolveDaily(seed int64, seconds int) (*outcome, error) {
	return runSolve(dailySpec, seed, seconds)
}

func runSolveHeavyTail(seed int64, seconds int) (*outcome, error) {
	return runSolve(heavySpec, seed, seconds)
}

// runSolve times repeated SolveHourly calls on one learned day for
// seconds, after an untimed warm-up solve.
func runSolve(spec solveSpec, seed int64, seconds int) (*outcome, error) {
	inSeed := solveSeed(seed)
	in, setup, err := setupSolve(spec, inSeed, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	first, err := in.solveOnce()
	if err != nil {
		return nil, err
	}
	checkRecorded(o, spec.name, inSeed, first)
	var rep repeats
	var times []float64
	before := readUsage()
	deadline := wallNow().Add(time.Duration(seconds) * time.Second)
	for len(times) < 3 || wallNow().Before(deadline) {
		t0 := wallNow()
		got, err := in.solveOnce()
		times = append(times, ms(since(t0)))
		o.attempted++
		if err != nil {
			o.failed++
			o.fail("%s: solve: %v", spec.name, err)
			continue
		}
		rep.check(first, got)
	}
	after := readUsage()
	rep.report(o, spec.name)
	o.add("setup_s", "s", setup)
	o.add("op_ms", "ms", median(times))
	perOp(o, before, after, len(times))
	o.add("peak_rss_mb", "MB", peakRSSMB())
	o.note("%s: search seed %d, %d solves", spec.name, inSeed, len(times))
	o.name("solve_ms_p50", "ms", median(times))
	o.name("failed_share", "ratio", float64(o.failed)/float64(o.attempted))
	return o, nil
}

func traceSolveDaily(seed int64, seconds int, tr *tracer) (*outcome, error) {
	o := &outcome{}
	if err := traceSolve(o, dailySpec, seed, tr); err != nil {
		return nil, err
	}
	return o, traceProbes(o, tr, "solve")
}

func traceSolveHeavyTail(seed int64, seconds int, tr *tracer) (*outcome, error) {
	o := &outcome{}
	if err := traceSolve(o, heavySpec, seed, tr); err != nil {
		return nil, err
	}
	return o, traceProbes(o, tr, "solve")
}

// tracedSolves is the fixed number of solves a traced run counts over,
// so work counts repeat exactly for a seed.
const tracedSolves = 8

// traceSolve is the traced run of a solve workload: untraced solves as
// the telemetry-overhead reference, then set-up, solves, tape compile,
// replay and single-hour solves with telemetry on. The two phases run
// one after the other because snapshots bind telemetry counters when
// they compile, so an untraced solver solving while telemetry is on
// would add to the counts.
func traceSolve(o *outcome, spec solveSpec, seed int64, tr *tracer) error {
	inSeed := solveSeed(seed)
	telemetry.Disable()
	plain, _, err := setupSolve(spec, inSeed, nil)
	if err != nil {
		return err
	}
	first, err := plain.solveOnce()
	if err != nil {
		return err
	}
	checkRecorded(o, spec.name, inSeed, first)
	plainMS, _, err := timeSolves(plain, tracedSolves, nil, nil)
	if err != nil {
		return err
	}

	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	in, _, err := setupSolve(spec, inSeed, tr)
	if err != nil {
		return err
	}
	got, err := in.solveOnce()
	if err != nil {
		return err
	}
	var rep repeats
	rep.check(first, got)
	c0 := readCounters(rec)
	tracedMS, cpuMS, err := timeSolves(in, tracedSolves, func(d string) { rep.check(first, d) }, tr)
	if err != nil {
		return err
	}
	work := readCounters(rec).minus(c0)
	o.attempted = tracedSolves
	rep.report(o, spec.name)
	addWorkCounts(o, work, tracedSolves)
	o.add("telemetry.overhead_share", "ratio", median(tracedMS)/median(plainMS)-1)
	return traceSolveLayers(o, in, cpuMS, work["montecarlo.samples"]/tracedSolves, tr)
}

// timeSolves runs n solves, each in a span when tr is set, and returns
// their wall times and the mean process CPU time per solve, both in ms.
// check, when set, sees each solve's digest.
func timeSolves(in *solveInputs, n int, check func(string), tr *tracer) ([]float64, float64, error) {
	var times []float64
	before := readUsage()
	for i := 0; i < n; i++ {
		sp := tr.begin("solver.solve_hourly", spanRef{})
		t0 := wallNow()
		d, err := in.solveOnce()
		times = append(times, ms(since(t0)))
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		if check != nil {
			check(d)
		}
	}
	after := readUsage()
	return times, ms(after.cpu-before.cpu) / float64(n), nil
}

// traceSolveLayers times the estimator and solver entry points on a
// learned day: tape compile, replay per sample and single-hour solves.
// solveCPUMS is the process CPU time one daily solve takes.
func traceSolveLayers(o *outcome, in *solveInputs, solveCPUMS, samplesPerSolve float64, tr *tracer) error {
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = in.now.Add(time.Duration(h) * time.Hour)
	}
	var snap *montecarlo.Snapshot
	for i := 0; i < 5; i++ {
		sp := tr.begin("montecarlo.compile", spanRef{})
		var err error
		snap, err = in.est.Compile(nil, hours, in.now)
		sp.end()
		if err != nil {
			return err
		}
	}
	o.add("montecarlo.compile_ms", "ms", tr.medianMS("montecarlo.compile"))

	// One HBSS-round-shaped batch: 16 single-node perturbations of the
	// home plan, replayed on hour 0's warm tape.
	home := snap.HomeAssign()
	assigns := make([][]int, 16)
	for i := range assigns {
		a := append([]int(nil), home...)
		a[i%len(a)] = (a[i%len(a)] + 1 + i/len(a)) % snap.Regions()
		assigns[i] = a
	}
	if _, err := snap.EstimateBatch(assigns, 0, nil); err != nil {
		return err
	}
	var perSample []float64
	for i := 0; i < 20; i++ {
		sp := tr.begin("montecarlo.estimate_batch", spanRef{})
		ests, err := snap.EstimateBatch(assigns, 0, nil)
		d := sp.end()
		if err != nil {
			return err
		}
		samples := 0
		for _, e := range ests {
			samples += e.Samples
		}
		perSample = append(perSample, float64(d)/float64(samples))
	}
	replayNS := median(perSample)
	o.add("montecarlo.replay_ns_per_sample", "ns", replayNS)

	for i := 0; i < 5; i++ {
		sp := tr.begin("solver.solve_one", spanRef{})
		_, err := in.s.SolveOne(in.now.Add(time.Hour), in.now)
		sp.end()
		if err != nil {
			return err
		}
	}
	o.add("solver.solve_one_ms", "ms", tr.medianMS("solver.solve_one"))
	// Derived, not measured: a daily solve's CPU time minus the replay
	// time its samples account for at the single-batch rate, i.e. HBSS
	// bookkeeping, scheduling and tape compiles. CPU rather than wall
	// time, because the solve runs its hours in parallel.
	o.add("solver.non_replay_ms", "ms", solveCPUMS-samplesPerSolve*replayNS/1e6)
	o.add("carbon.synth_ms", "ms", tr.medianMS("carbon.synth"))
	o.add("executor.learn_day_ms", "ms", tr.medianMS("executor.learn_day"))
	o.add("metrics.refresh_forecasts_ms", "ms", tr.medianMS("metrics.refresh_forecasts"))
	return nil
}
