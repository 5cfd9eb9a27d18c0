package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExhibitsMatchCaribouEval fails when the benchmark's exhibit list
// or quick options drift from `caribou-eval -quick all`: for the default
// seed the in-process pass must print exactly what the command prints,
// and that output must match the recorded hash.
func TestExhibitsMatchCaribouEval(t *testing.T) {
	if testing.Short() {
		t.Skip("runs -quick all twice")
	}
	cmd := exec.Command("go", "run", "caribou/cmd/caribou-eval", "-quick", "all")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	want, err := cmd.Output()
	if err != nil {
		t.Fatalf("caribou-eval -quick all: %v\n%s", err, stderr.Bytes())
	}

	var names []string
	for _, m := range regexp.MustCompile(`(?m)^===== (\S+) =====$`).FindAllSubmatch(want, -1) {
		names = append(names, string(m[1]))
	}
	var ours []string
	for _, ex := range exhibits {
		ours = append(ours, ex.name)
	}
	if strings.Join(names, " ") != strings.Join(ours, " ") {
		t.Fatalf("exhibit list drifted:\n caribou-eval: %v\n perfbench:    %v", names, ours)
	}

	const defaultSeed = 17 // caribou-eval's -seed default
	if figuresSeed(0) != defaultSeed {
		t.Fatalf("seed 0 maps to eval seed %d, want caribou-eval's default %d", figuresSeed(0), defaultSeed)
	}
	chdirTemp(t)
	st, err := freshStore("test")
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPass(defaultSeed, st, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.out, want) {
		t.Fatalf("in-process pass differs from caribou-eval -quick all (%d vs %d bytes)", len(got.out), len(want))
	}
	if h, _ := expectedHash("figures", defaultSeed); h != digest(want) {
		t.Fatalf("recorded hash %s, caribou-eval output hashes to %s", h, digest(want))
	}
}

// chdirTemp runs the rest of the test in a fresh directory, so run
// stores land there.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's workload and
// metric lists in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.ReplaceAll(workloadNames(), ",", ""); got != want {
		t.Errorf("workloads: BENCHMARK.json %q, program %q", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, ms []metric) {
		if len(listed) != len(ms) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(ms))
			return
		}
		for i, m := range ms {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd())
	check("per_layer", spec.PerLayer, perLayer())
}

func TestResultLineShape(t *testing.T) {
	o := &outcome{attempted: 3}
	o.add("op_ms", "ms", 1.5)
	line, err := resultLine(o)
	if err != nil {
		t.Fatal(err)
	}
	var r map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	if len(r) != 4 || r["correct"] == nil || r["attempted"] == nil || r["failed"] == nil || r["metrics"] == nil {
		t.Fatalf("result line keys: %s", line)
	}
	if want := `{"op_ms":{"value":1.5,"unit":"ms"}}`; string(r["metrics"]) != want {
		t.Fatalf("metrics = %s, want %s", r["metrics"], want)
	}
	o.fail("broken")
	if line, _ := resultLine(o); !strings.HasPrefix(line, `{"correct":false`) {
		t.Fatalf("a failed check must report correct=false: %s", line)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host fingerprint) string {
		p := filepath.Join(dir, name)
		r := record{Workload: "solve-daily", Host: host, Metrics: map[string]float64{"op_ms": 30}, Units: map[string]string{"op_ms": "ms"}}
		if err := writeJSONFile(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := fingerprint{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "a"}
	same := h
	same.Commit = "b"
	other := h
	other.CPU = "cpu B"
	a, b, c := write("a.json", h), write("b.json", same), write("c.json", other)

	var out bytes.Buffer
	if err := compareRecords(a, b, &out); err != nil {
		t.Fatalf("same host, other commit: %v", err)
	}
	if !strings.Contains(out.String(), "op_ms") {
		t.Fatalf("comparison printed no metric:\n%s", out.String())
	}
	if err := compareRecords(a, c, &out); !errors.Is(err, errHostMismatch) {
		t.Fatalf("other host: err = %v, want errHostMismatch", err)
	}
}

func TestFoldSeed(t *testing.T) {
	for _, tc := range []struct{ seed, base, want int64 }{
		{0, 17, 17}, {15, 17, 32}, {16, 17, 17}, {-1, 1, 16},
	} {
		if got := foldSeed(tc.seed, tc.base); got != tc.want {
			t.Errorf("foldSeed(%d, %d) = %d, want %d", tc.seed, tc.base, got, tc.want)
		}
	}
}
