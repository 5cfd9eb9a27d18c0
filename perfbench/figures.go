package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/eval"
	"caribou/internal/runstore"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// exhibit is one entry of the `caribou-eval -quick all` sequence, run
// with the quick options that command uses.
type exhibit struct {
	name string
	run  func(w io.Writer, seed int64, pool *eval.Pool) error
}

func quickWLs() []*workloads.Workload {
	return []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
}

var quickClasses = []workloads.InputClass{workloads.Small}

// quickPerDay is caribou-eval's learning-day traffic under -quick.
const quickPerDay = 96

// exhibits mirrors caribou-eval's "all" list and -quick options.
// TestExhibitsMatchCaribouEval fails when the two drift apart.
var exhibits = []exhibit{
	{"fig2", func(w io.Writer, seed int64, _ *eval.Pool) error {
		series, err := eval.Fig2(eval.Fig2Options{Seed: seed})
		if err != nil {
			return err
		}
		eval.PrintFig2(w, series)
		stats, err := eval.Fig2Stats(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nEvaluation-week averages (gCO2eq/kWh): %v\n", stats)
		return nil
	}},
	{"table1", func(w io.Writer, _ int64, _ *eval.Pool) error {
		eval.PrintTable1(w, eval.Table1())
		return nil
	}},
	{"fig7", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.Fig7(eval.Fig7Options{Seed: seed, Workloads: quickWLs(), Classes: quickClasses, Pool: pool})
		if err != nil {
			return err
		}
		eval.PrintFig7(w, rows)
		return nil
	}},
	{"fig8", func(w io.Writer, seed int64, pool *eval.Pool) error {
		points, err := eval.Fig8(eval.Fig8Options{Seed: seed, Workloads: quickWLs(), Classes: quickClasses, Pool: pool})
		if err != nil {
			return err
		}
		eval.PrintFig8(w, points)
		return nil
	}},
	{"fig9", func(w io.Writer, seed int64, pool *eval.Pool) error {
		points, err := eval.Fig9(eval.Fig9Options{Seed: seed, Workloads: quickWLs(), Classes: quickClasses, Pool: pool,
			Factors: []float64{1e-4, 1e-3, 1e-2}})
		if err != nil {
			return err
		}
		eval.PrintFig9(w, points)
		return nil
	}},
	{"fig10", func(w io.Writer, seed int64, pool *eval.Pool) error {
		points, err := eval.Fig10(eval.Fig10Options{Seed: seed, Pool: pool, Tolerances: []float64{0, 5, 10}})
		if err != nil {
			return err
		}
		eval.PrintFig10(w, points)
		return nil
	}},
	{"fig11", func(w io.Writer, seed int64, pool *eval.Pool) error {
		results, err := eval.Fig11(eval.Fig11Options{Seed: seed, Pool: pool, Days: 3, PerDay: 300})
		if err != nil {
			return err
		}
		eval.PrintFig11(w, results)
		return nil
	}},
	{"fig12", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.Fig12(eval.Fig12Options{Seed: seed, Workloads: quickWLs(), Classes: quickClasses, Pool: pool})
		if err != nil {
			return err
		}
		eval.PrintFig12(w, rows)
		return nil
	}},
	{"fig13", func(w io.Writer, seed int64, pool *eval.Pool) error {
		a, b, err := eval.Fig13(eval.Fig13Options{Seed: seed, Pool: pool, Frequencies: []int{1, 4, 7}, PerDay: 400, Days: 7})
		if err != nil {
			return err
		}
		eval.PrintFig13(w, a, b)
		return nil
	}},
	{"table2", func(w io.Writer, _ int64, _ *eval.Pool) error {
		eval.PrintTable2(w, eval.Table2())
		return nil
	}},
	{"ext-global", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.ExtGlobal(pool, quickWLs(), seed, quickPerDay)
		if err != nil {
			return err
		}
		eval.PrintExtGlobal(w, rows)
		return nil
	}},
	{"ext-temporal", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.ExtTemporal(pool, quickWLs(), seed, quickPerDay)
		if err != nil {
			return err
		}
		eval.PrintExtTemporal(w, rows)
		return nil
	}},
	{"ext-signal", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.ExtSignal(pool, quickWLs(), seed, quickPerDay)
		if err != nil {
			return err
		}
		eval.PrintExtSignal(w, rows)
		return nil
	}},
	{"ext-shift", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.ExtShift(eval.ExtShiftOptions{Seed: seed, Pool: pool, Days: 4, PerDay: 120})
		if err != nil {
			return err
		}
		eval.PrintExtShift(w, rows)
		return nil
	}},
	{"ablate-solver", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.AblationSolver(pool, seed, quickPerDay)
		if err != nil {
			return err
		}
		// The second writer gets wall-clock timings; caribou-eval sends
		// them to stderr, off the compared output.
		eval.PrintAblationSolver(w, io.Discard, rows)
		return nil
	}},
	{"ablate-forecast", func(w io.Writer, seed int64, _ *eval.Pool) error {
		rows, err := eval.AblationForecast(seed)
		if err != nil {
			return err
		}
		eval.PrintAblationForecast(w, rows)
		return nil
	}},
	{"ablate-bench", func(w io.Writer, seed int64, pool *eval.Pool) error {
		rows, err := eval.AblationBenchTraffic(pool, seed, quickPerDay)
		if err != nil {
			return err
		}
		eval.PrintAblationBenchTraffic(w, rows)
		return nil
	}},
}

// figuresSeed maps a run seed onto the eval seeds 17..32; 17 is
// caribou-eval's default.
func figuresSeed(seed int64) int64 { return foldSeed(seed, 17) }

// passResult is one pass over every exhibit.
type passResult struct {
	out   []byte
	wall  time.Duration
	use   usage  // process CPU time and allocation during the pass
	work  counts // telemetry counters charged to the pass; zero when off
	stats eval.PoolStats
	// exhibit wall times in exhibit order, only when traced
	exhibitNS []float64
}

// runPass runs every exhibit in order on a fresh pool attached to store,
// writing what `caribou-eval -quick all` prints to stdout.
func runPass(seed int64, store *runstore.Store, tr *tracer, label string) (*passResult, error) {
	var buf bytes.Buffer
	pool := eval.NewPool(0)
	pool.AttachStore(store)
	root := tr.begin("eval.pass"+label, spanRef{})
	rec := telemetry.Default()
	c0 := readCounters(rec)
	u0 := readUsage()
	t0 := wallNow()
	res := &passResult{}
	for _, ex := range exhibits {
		fmt.Fprintf(&buf, "\n===== %s =====\n", ex.name)
		sp := tr.begin("eval."+ex.name+label, root)
		err := ex.run(&buf, seed, pool)
		res.exhibitNS = append(res.exhibitNS, float64(sp.end()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.name, err)
		}
	}
	res.wall = since(t0)
	u1 := readUsage()
	res.use = usage{cpu: u1.cpu - u0.cpu, alloc: u1.alloc - u0.alloc}
	res.work = readCounters(rec).minus(c0)
	root.end()
	res.out = buf.Bytes()
	res.stats = pool.Stats()
	return res, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// freshStore opens an empty run store under the output directory,
// removing whatever a previous cycle left there.
func freshStore(name string) (*runstore.Store, error) {
	dir := filepath.Join(outDir, "stores", name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return runstore.Open(dir)
}

// cycle is one cold pass into a fresh store and one warm pass over it.
type cycle struct {
	cold, warm *passResult
}

// runCycle runs and checks one cold+warm cycle: the cold pass must match
// the recorded hash, and the warm pass must be byte-identical and
// execute nothing.
func runCycle(o *outcome, evalSeed int64, store string, tr *tracer) (*cycle, error) {
	st, err := freshStore(store)
	if err != nil {
		return nil, err
	}
	cold, err := runPass(evalSeed, st, tr, "")
	if err != nil {
		return nil, err
	}
	warm, err := runPass(evalSeed, st, tr, "_warm")
	if err != nil {
		return nil, err
	}
	o.attempted += 2
	checkFigures(o, evalSeed, cold, warm)
	return &cycle{cold: cold, warm: warm}, nil
}

func checkFigures(o *outcome, evalSeed int64, cold, warm *passResult) {
	got := digest(cold.out)
	if want, ok := expectedHash("figures", evalSeed); !ok {
		o.fail("figures: no recorded hash for eval seed %d", evalSeed)
	} else if got != want {
		o.fail("figures: cold stdout hash %s, recorded %s", got[:12], want[:12])
	}
	if !bytes.Equal(cold.out, warm.out) {
		o.fail("figures: warm pass output differs from cold pass")
	}
	if warm.stats.Executed != 0 {
		o.fail("figures: warm pass executed %d runs, want 0", warm.stats.Executed)
	}
	if cold.stats.Executed == 0 || cold.stats.DiskWrites == 0 {
		o.fail("figures: cold pass executed %d runs and wrote %d blobs", cold.stats.Executed, cold.stats.DiskWrites)
	}
}

// figuresWindowDays lists the carbon windows the exhibits read through
// carbon.SharedSource, as days past EvalStart of the window's end; every
// window starts at EvalStart-8d. core.NewEnv asks for runs of 1, 2, 3, 4
// and 7 days plus two days of slack, and fig13 and the forecast ablation
// read the 9-day window directly.
var figuresWindowDays = []int{3, 4, 5, 6, 9}

// figuresSetup times what a fresh process pays before the cold pass's
// first exhibit: open a run store in a new directory, attach it to a
// pool, and synthesize the carbon traces of every window the exhibits
// read. The process-wide trace cache cannot be emptied, so each rep
// synthesizes the windows with carbon.NewSyntheticSource and removes its
// directory outside the timed part. Afterwards the windows are put in
// the cache once, so no timed pass pays for them.
func figuresSetup(evalSeed int64) (float64, error) {
	parent := filepath.Join(outDir, "stores")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return 0, err
	}
	from := eval.EvalStart.Add(-8 * 24 * time.Hour)
	synth := func(source func(int64, time.Time, time.Time) (*carbon.SyntheticSource, error)) error {
		for _, d := range figuresWindowDays {
			if _, err := source(evalSeed, from, eval.EvalStart.Add(time.Duration(d)*24*time.Hour)); err != nil {
				return err
			}
		}
		return nil
	}
	var times []float64
	for i := 0; i < figuresSetupReps; i++ {
		dir, err := os.MkdirTemp(parent, "setup-")
		if err != nil {
			return 0, err
		}
		t0 := wallNow()
		st, err := runstore.Open(dir)
		if err == nil {
			eval.NewPool(0).AttachStore(st)
			err = synth(carbon.NewSyntheticSource)
		}
		times = append(times, since(t0).Seconds())
		if err := errors.Join(err, os.RemoveAll(dir)); err != nil {
			return 0, err
		}
	}
	if err := synth(carbon.SharedSource); err != nil {
		return 0, err
	}
	return median(times), nil
}

// minFigureCycles is the fewest cold+warm cycles an untraced run makes,
// whatever -seconds says.
const minFigureCycles = 2

func runFigures(seed int64, seconds int) (*outcome, error) {
	evalSeed := figuresSeed(seed)
	setup, err := figuresSetup(evalSeed)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var cold, warm []float64
	var coldUse usage
	t0 := wallNow()
	budget := time.Duration(seconds) * time.Second
	// Start another cycle only while the mean cycle still fits.
	for len(cold) < minFigureCycles || since(t0)*time.Duration(len(cold)+1)/time.Duration(len(cold)) <= budget {
		c, err := runCycle(o, evalSeed, "run", nil)
		if err != nil {
			return nil, err
		}
		cold = append(cold, c.cold.wall.Seconds())
		warm = append(warm, c.warm.wall.Seconds())
		coldUse.cpu += c.cold.use.cpu
		coldUse.alloc += c.cold.use.alloc
	}
	o.add("setup_s", "s", setup)
	o.add("op_ms", "ms", 1000*median(cold))
	perOp(o, usage{}, coldUse, len(cold))
	o.add("peak_rss_mb", "MB", peakRSSMB())
	o.note("figures: eval seed %d, %d cold+warm cycles", evalSeed, len(cold))
	o.name("figures_cold_s", "s", median(cold))
	o.name("figures_warm_s", "s", median(warm))
	o.name("failed_share", "ratio", float64(o.failed)/float64(o.attempted))
	return o, nil
}

func traceFigures(seed int64, seconds int, tr *tracer) (*outcome, error) {
	o := &outcome{}
	if err := traceFiguresInto(o, seed, tr, true); err != nil {
		return nil, err
	}
	return o, traceProbes(o, tr, "figures")
}

// traceFiguresInto is the traced figures run: an untraced cold pass for
// the overhead reference, then one traced cold+warm cycle whose exhibit
// spans, pool statistics and run-store blobs give the per-layer
// metrics. Work counts and the overhead share are reported only when own
// is set: the figures workload itself, not a probe from another.
func traceFiguresInto(o *outcome, seed int64, tr *tracer, own bool) error {
	evalSeed := figuresSeed(seed)
	telemetry.Disable()
	var ref *cycle
	if own {
		plain := &outcome{}
		var err error
		if ref, err = runCycle(plain, evalSeed, "plain", nil); err != nil {
			return err
		}
		o.checks = append(o.checks, plain.checks...)
	}

	telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	c, err := runCycle(o, evalSeed, "traced", tr)
	if err != nil {
		return err
	}
	for i, ex := range exhibits {
		o.add("eval."+ex.name+"_s", "s", c.cold.exhibitNS[i]/1e9)
		o.add("eval."+ex.name+"_warm_s", "s", c.warm.exhibitNS[i]/1e9)
	}
	if own {
		addWorkCounts(o, c.cold.work, 1)
		addPoolCounts(o, c.cold.stats, c.warm.stats)
		o.add("telemetry.overhead_share", "ratio", c.cold.wall.Seconds()/ref.cold.wall.Seconds()-1)
	}
	return traceRunstore(o, filepath.Join(outDir, "stores", "traced"), tr)
}

func addPoolCounts(o *outcome, cold, warm eval.PoolStats) {
	o.add("pool.submitted", "count", float64(cold.Submitted))
	o.add("pool.executed", "count", float64(cold.Executed))
	o.add("pool.memo_hits", "count", float64(cold.Hits))
	o.add("pool.disk_writes", "count", float64(cold.DiskWrites))
	o.add("pool.disk_hits", "count", float64(warm.DiskHits))
	reuse := 0.0
	if n := cold.Submitted + warm.Submitted; n > 0 {
		reuse = 1 - float64(cold.Executed+warm.Executed)/float64(n)
	}
	o.add("pool.reuse_ratio", "ratio", reuse)
}

// traceRunstore times the benchmark's own Get and Put calls on every
// blob a cold pass wrote: Get from the filled store, Put into a fresh
// one.
func traceRunstore(o *outcome, dir string, tr *tracer) error {
	src, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	var keys []string
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		keys = append(keys, filepath.Base(filepath.Dir(path))+d.Name())
		return nil
	})
	if err != nil {
		return err
	}
	dst, err := freshStore("put")
	if err != nil {
		return err
	}
	var bytesTotal int
	var getNS, putNS time.Duration
	for _, k := range keys {
		sp := tr.begin("runstore.get", spanRef{})
		payload, ok, err := src.Get(k, eval.ResultSchema)
		getNS += sp.end()
		if err != nil || !ok {
			return fmt.Errorf("runstore get %s: ok=%v err=%v", k, ok, err)
		}
		bytesTotal += len(payload)
		sp = tr.begin("runstore.put", spanRef{})
		err = dst.Put(k, eval.ResultSchema, payload)
		putNS += sp.end()
		if err != nil {
			return err
		}
	}
	n := float64(max(len(keys), 1))
	o.add("runstore.get_us_per_blob", "us", float64(getNS)/1e3/n)
	o.add("runstore.put_us_per_blob", "us", float64(putNS)/1e3/n)
	o.add("runstore.bytes_per_blob", "bytes", float64(bytesTotal)/n)
	return nil
}
