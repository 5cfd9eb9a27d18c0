// Command perfbench is the repository's benchmark: one command that
// drives a named workload through the public entry points of the eval,
// solver, montecarlo, runstore and controlplane packages, checks that
// every output is correct, and prints its metrics by name with their
// units. The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// telemetry off. With -trace 1 a separate traced run reports the
// per-layer set and writes its spans to .bench_build/perfbench/.
// Each run also writes a result record carrying a host fingerprint;
// -compare refuses to compare records taken on different hosts.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh -compare OLD.json NEW.json
//	bash perfbench/run.sh -capacity --seconds S
//
// See perfbench/README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// outDir holds everything a run writes: run stores, traces and records.
const outDir = ".bench_build/perfbench"

// workload is one named benchmark input set.
type workload struct {
	name string
	// run measures the workload with telemetry off and returns its
	// end-to-end metrics.
	run func(seed int64, seconds int) (*outcome, error)
	// trace measures it again with telemetry on and returns per-layer
	// metrics gathered by the tracer.
	trace func(seed int64, seconds int, tr *tracer) (*outcome, error)
}

func benchWorkloads() []workload {
	return []workload{
		{name: "figures", run: runFigures, trace: traceFigures},
		{name: "solve-daily", run: runSolveDaily, trace: traceSolveDaily},
		{name: "solve-heavytail", run: runSolveHeavyTail, trace: traceSolveHeavyTail},
		{name: "controlplane", run: runControlPlane, trace: traceControlPlane},
	}
}

// outcome is what one run reports.
type outcome struct {
	attempted int
	failed    int
	// checks lists every output check that failed; empty means correct.
	checks  []string
	metrics []metric
	// named are the workload's own names for its figures (such as
	// figures_cold_s or query_p99_us), printed with the metrics and kept
	// in the record but not in the result line, whose metric set is the
	// same on every workload.
	named []metric
	// notes describe the run's inputs.
	notes []string
}

// metric is one named, united value.
type metric struct {
	name  string
	unit  string
	value float64
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: v})
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) name(name, unit string, v float64) {
	o.named = append(o.named, metric{name: name, unit: unit, value: v})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figures, solve-daily, solve-heavytail or controlplane")
	seed := fs.Int64("seed", 0, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with telemetry off; 1: traced per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result records (args: OLD NEW); refused across hosts")
	record := fs.Bool("record", false, "recompute the expected output hashes and print them as JSON")
	capacity := fs.Bool("capacity", false, "measure the control plane's saturation rate closed-loop on the requests of a -seconds run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two record files")
			return 2
		}
		if err := compareRecords(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	case *record:
		if err := recordExpected(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	case *capacity:
		if err := measureCapacity(*seed, *seconds, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for _, w := range benchWorkloads() {
		if w.name == *name {
			w := w
			wl = &w
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	var out *outcome
	var err error
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
		out, err = wl.trace(*seed, *seconds, tr)
	} else {
		out, err = wl.run(*seed, *seconds)
		if err == nil {
			err = sameMetrics(out.metrics, endToEnd())
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, c := range out.checks {
		fmt.Fprintf(stderr, "perfbench %s: CHECK FAILED: %s\n", wl.name, c)
	}

	rec := newRecord(wl.name, *seed, *seconds, *traced == 1, out)
	recPath := filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d-trace%d.json", wl.name, *seed, *traced))
	if err := writeJSONFile(recPath, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", rec.Host)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range append(out.named, out.metrics...) {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := resultLine(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range benchWorkloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// resultLine renders the run's last stdout line: one JSON object with
// correct, attempted, failed and the metrics by name with their units.
func resultLine(out *outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out.metrics))
	for _, m := range out.metrics {
		if _, dup := metrics[m.name]; dup {
			return "", fmt.Errorf("metric %s reported twice", m.name)
		}
		metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.checks) == 0, max(out.attempted, 1), out.failed, metrics})
	return string(b), err
}

// sameMetrics checks that a run reported exactly the listed metrics, in
// order and with their units.
func sameMetrics(got, want []metric) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i].name || m.unit != want[i].unit {
			return fmt.Errorf("metric %d is %s %s, want %s %s", i, m.name, m.unit, want[i].name, want[i].unit)
		}
	}
	return nil
}

// record is the durable result of one run.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      fingerprint        `json:"host"`
	Correct   bool               `json:"correct"`
	Checks    []string           `json:"checks,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Units     map[string]string  `json:"units"`
}

func newRecord(name string, seed int64, seconds int, traced bool, out *outcome) record {
	r := record{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Host: hostFingerprint(), Correct: len(out.checks) == 0, Checks: out.checks,
		Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]float64), Units: make(map[string]string),
	}
	for _, m := range append(out.named, out.metrics...) {
		r.Metrics[m.name] = m.value
		r.Units[m.name] = m.unit
	}
	return r
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// errHostMismatch refuses a comparison across hosts: wall times from
// different machines are not comparable.
var errHostMismatch = errors.New("records come from different hosts")

// compareRecords prints each shared metric of two records side by side.
// Records of different workloads, trace modes or hosts are refused.
func compareRecords(oldPath, newPath string, w io.Writer) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		return fmt.Errorf("records measure different things: %s/traced=%v vs %s/traced=%v", a.Workload, a.Traced, b.Workload, b.Traced)
	}
	if !a.Host.sameHost(b.Host) {
		return fmt.Errorf("%w:\n  old: %s\n  new: %s", errHostMismatch, a.Host, b.Host)
	}
	fmt.Fprintf(w, "workload %s; old %s seed %d; new %s seed %d\n", a.Workload, a.Host.Commit, a.Seed, b.Host.Commit, b.Seed)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ov, nv := a.Metrics[n], b.Metrics[n]
		change := "n/a"
		if ov != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nv/ov-1))
		}
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %8s %s\n", n, ov, nv, change, a.Units[n])
	}
	return nil
}
