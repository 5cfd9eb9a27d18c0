package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"caribou/internal/telemetry"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Timings come from the workload's own calls where it makes them
// and from a short probe of that layer otherwise; counts come from the
// workload alone and read zero for layers it does not touch.
func perLayer() []metric {
	ms := []metric{
		{name: "carbon.synth_ms", unit: "ms"},
		{name: "executor.learn_day_ms", unit: "ms"},
		{name: "metrics.refresh_forecasts_ms", unit: "ms"},
		{name: "executor.invocations_per_op", unit: "count"},
		{name: "platform.invocations_per_op", unit: "count"},
		{name: "platform.transfers_per_op", unit: "count"},
		{name: "montecarlo.compile_ms", unit: "ms"},
		{name: "montecarlo.replay_ns_per_sample", unit: "ns"},
		{name: "montecarlo.samples_per_op", unit: "count"},
		{name: "montecarlo.estimates_per_op", unit: "count"},
		{name: "montecarlo.batch_sweeps_per_op", unit: "count"},
		{name: "montecarlo.pruned_per_op", unit: "count"},
		{name: "montecarlo.prune_ratio", unit: "ratio"},
		{name: "montecarlo.delta_resumed_per_op", unit: "count"},
		{name: "montecarlo.delta_fallbacks_per_op", unit: "count"},
		{name: "solver.solve_one_ms", unit: "ms"},
		{name: "solver.estimates_per_op", unit: "count"},
		{name: "solver.memo_hits_per_op", unit: "count"},
		{name: "solver.memo_hit_ratio", unit: "ratio"},
		{name: "solver.hbss_batches_per_op", unit: "count"},
		{name: "solver.non_replay_ms", unit: "ms"},
	}
	for _, ex := range exhibits {
		ms = append(ms, metric{name: "eval." + ex.name + "_s", unit: "s"}, metric{name: "eval." + ex.name + "_warm_s", unit: "s"})
	}
	return append(ms,
		metric{name: "pool.submitted", unit: "count"},
		metric{name: "pool.executed", unit: "count"},
		metric{name: "pool.memo_hits", unit: "count"},
		metric{name: "pool.disk_hits", unit: "count"},
		metric{name: "pool.disk_writes", unit: "count"},
		metric{name: "pool.reuse_ratio", unit: "ratio"},
		metric{name: "runstore.put_us_per_blob", unit: "us"},
		metric{name: "runstore.get_us_per_blob", unit: "us"},
		metric{name: "runstore.bytes_per_blob", unit: "bytes"},
		metric{name: "controlplane.register_ms_p50", unit: "ms"},
		metric{name: "controlplane.query_service_us", unit: "us"},
		metric{name: "controlplane.delta_service_ms", unit: "ms"},
		metric{name: "controlplane.query_p50_us", unit: "us"},
		metric{name: "controlplane.query_p99_us", unit: "us"},
		metric{name: "controlplane.mutation_p50_ms", unit: "ms"},
		metric{name: "controlplane.mutation_p99_ms", unit: "ms"},
		metric{name: "controlplane.resolves", unit: "count"},
		metric{name: "controlplane.solve_skips", unit: "count"},
		metric{name: "controlplane.rejections", unit: "count"},
		metric{name: "loadgen.late_ms_p99", unit: "ms"},
		metric{name: "telemetry.overhead_share", unit: "ratio"},
	)
}

// endToEnd lists the metrics an untraced run reports on every workload.
func endToEnd() []metric {
	return []metric{
		{name: "setup_s", unit: "s"},
		{name: "op_ms", unit: "ms"},
		{name: "cpu_ms_per_op", unit: "ms"},
		{name: "alloc_mb_per_op", unit: "MB"},
		{name: "peak_rss_mb", unit: "MB"},
	}
}

// counterNames are the program's own telemetry counters the traced run
// reads.
var counterNames = []string{
	"executor.invocations", "platform.invocations", "platform.transfers",
	"montecarlo.samples", "montecarlo.estimates", "montecarlo.batch_sweeps",
	"montecarlo.batch_plans", "montecarlo.pruned_candidates",
	"montecarlo.delta_resumed", "montecarlo.delta_fallbacks",
	"solver.estimates", "solver.memo_hits", "solver.hbss_batches",
}

type counts map[string]float64

func readCounters(rec *telemetry.Recorder) counts {
	c := counts{}
	for _, n := range counterNames {
		c[n] = float64(rec.Counter(n).Value())
	}
	return c
}

func (c counts) minus(d counts) counts {
	out := counts{}
	for n, v := range c {
		out[n] = v - d[n]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addWorkCounts reports the counters charged to ops operations.
func addWorkCounts(o *outcome, c counts, ops int) {
	per := func(name string) float64 { return c[name] / float64(ops) }
	o.add("executor.invocations_per_op", "count", per("executor.invocations"))
	o.add("platform.invocations_per_op", "count", per("platform.invocations"))
	o.add("platform.transfers_per_op", "count", per("platform.transfers"))
	o.add("montecarlo.samples_per_op", "count", per("montecarlo.samples"))
	o.add("montecarlo.estimates_per_op", "count", per("montecarlo.estimates"))
	o.add("montecarlo.batch_sweeps_per_op", "count", per("montecarlo.batch_sweeps"))
	o.add("montecarlo.pruned_per_op", "count", per("montecarlo.pruned_candidates"))
	o.add("montecarlo.prune_ratio", "ratio", ratio(c["montecarlo.pruned_candidates"], c["montecarlo.batch_plans"]))
	o.add("montecarlo.delta_resumed_per_op", "count", per("montecarlo.delta_resumed"))
	o.add("montecarlo.delta_fallbacks_per_op", "count", per("montecarlo.delta_fallbacks"))
	o.add("solver.estimates_per_op", "count", per("solver.estimates"))
	o.add("solver.memo_hits_per_op", "count", per("solver.memo_hits"))
	o.add("solver.memo_hit_ratio", "ratio", ratio(c["solver.memo_hits"], c["solver.memo_hits"]+c["solver.estimates"]))
	o.add("solver.hbss_batches_per_op", "count", per("solver.hbss_batches"))
}

// traceProbes completes a traced run: it probes the layer groups the
// workload (of group own) does not exercise, so every per-layer timing
// is measured, zero-fills the counts of layers the workload does not
// touch, and orders the metrics as perLayer lists them.
func traceProbes(o *outcome, tr *tracer, own string) error {
	if own != "solve" {
		if err := probeSolve(o, tr); err != nil {
			return fmt.Errorf("solve probe: %w", err)
		}
	}
	if own != "figures" {
		if err := traceFiguresInto(o, 0, tr, false); err != nil {
			return fmt.Errorf("figures probe: %w", err)
		}
	}
	if own != "controlplane" {
		if err := traceControlPlaneInto(o, 1, cpProbeSeconds, tr, false); err != nil {
			return fmt.Errorf("controlplane probe: %w", err)
		}
	}
	have := map[string]metric{}
	for _, m := range o.metrics {
		if _, dup := have[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		have[m.name] = m
	}
	var ordered []metric
	for _, want := range perLayer() {
		m, ok := have[want.name]
		switch {
		case !ok && (want.unit == "count" || want.unit == "ratio"):
			m = want // a layer this workload does not touch: zero work
		case !ok:
			return fmt.Errorf("traced run measured no %s", want.name)
		case m.unit != want.unit:
			return fmt.Errorf("%s reported in %s, want %s", m.name, m.unit, want.unit)
		}
		ordered = append(ordered, m)
		delete(have, want.name)
	}
	if len(have) != 0 {
		return fmt.Errorf("traced run reported unlisted metrics: %v", have)
	}
	o.metrics = ordered
	return nil
}

// probeSolve measures the estimator and solver layer timings on the
// solve-daily inputs for a workload that does not solve on its own.
func probeSolve(o *outcome, tr *tracer) error {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	in, _, err := setupSolve(dailySpec, solveSeed(0), tr)
	if err != nil {
		return err
	}
	if _, err := in.solveOnce(); err != nil {
		return err
	}
	c0 := readCounters(rec)
	_, cpuMS, err := timeSolves(in, 3, nil, tr)
	if err != nil {
		return err
	}
	samples := readCounters(rec).minus(c0)["montecarlo.samples"] / 3
	return traceSolveLayers(o, in, cpuMS, samples, tr)
}

// expected.json holds the recorded output hashes: for each workload, a
// map from input seed to the SHA-256 of the figures' stdout or of the
// daily solve's plans. Regenerate with -record after a change that
// intentionally alters output.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]map[string]string {
	m := map[string]map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err)) // embedded at build time
	}
	return m
}()

func expectedHash(workload string, inputSeed int64) (string, bool) {
	h, ok := expected[workload][strconv.FormatInt(inputSeed, 10)]
	return h, ok
}

// recordExpected recomputes every recorded hash and prints expected.json.
func recordExpected(w io.Writer) error {
	out := map[string]map[string]string{}
	for _, spec := range []solveSpec{dailySpec, heavySpec} {
		out[spec.name] = map[string]string{}
		for s := int64(0); s < inputSeeds; s++ {
			in, err := buildSolve(spec, solveSeed(s), nil, spanRef{})
			if err != nil {
				return err
			}
			d, err := in.solveOnce()
			if err != nil {
				return err
			}
			out[spec.name][strconv.FormatInt(solveSeed(s), 10)] = d
		}
	}
	out["figures"] = map[string]string{}
	for s := int64(0); s < inputSeeds; s++ {
		st, err := freshStore("record")
		if err != nil {
			return err
		}
		p, err := runPass(figuresSeed(s), st, nil, "")
		if err != nil {
			return err
		}
		out["figures"][strconv.FormatInt(figuresSeed(s), 10)] = digest(p.out)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
