package executor

import (
	"fmt"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

// legacyLabel formats a per-decision stream label the way the executor
// always has: "<workflow>/<kind>/<inv>" followed by "/<part>" per part.
// Figures are pinned to the streams these labels derive.
func legacyLabel(wf, kind string, inv uint64, parts ...dag.NodeID) string {
	label := fmt.Sprintf("%s/%s/%d", wf, kind, inv)
	for _, p := range parts {
		label += "/" + string(p)
	}
	return label
}

func TestDecisionSeedMatchesLegacyLabel(t *testing.T) {
	_, p := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, workloads.Text2SpeechCensoring(), ModeCaribou, HomeOnly{}, &recs)
	wf := e.wl.Name
	cases := []struct {
		kind  string
		parts []dag.NodeID
	}{
		{"dur", []dag.NodeID{"validate"}},
		{"util", []dag.NodeID{"compress"}},
		{"branch", []dag.NodeID{"profanity", "censor"}},
	}
	for _, c := range cases {
		for _, inv := range []uint64{0, 1, 10, 99999, 1<<64 - 1} {
			label := legacyLabel(wf, c.kind, inv, c.parts...)
			if got, want := e.decisionSeed(c.kind, inv, c.parts...), simclock.DeriveSeed(7, label); got != want {
				t.Errorf("decisionSeed(%s, %d) = %d, DeriveSeed(%q) = %d", c.kind, inv, got, label, want)
			}
			got, want := e.decision(c.kind, inv, c.parts...), simclock.DeriveRand(7, label)
			for i := 0; i < 8; i++ {
				if a, b := got.Float64(), want.Float64(); a != b {
					t.Fatalf("%q: draw %d = %v, DeriveRand gives %v", label, i, a, b)
				}
			}
		}
	}
}

// TestDecisionStreamsMatchDeriveRand replays every recorded decision —
// each execution's duration and CPU utilization and the conditional
// profanity→censor branch — from DeriveRand over the legacy label, in
// both orchestration modes that draw them.
func TestDecisionStreamsMatchDeriveRand(t *testing.T) {
	const seed = 7
	wl := workloads.Text2SpeechCensoring()
	plan := dag.NewHomePlan(wl.DAG, region.USEast1)
	plan["profanity"] = region.CACentral1
	plan["censor"] = region.CACentral1
	for _, mode := range []Mode{ModeCaribou, ModeStepFunctions} {
		t.Run(mode.String(), func(t *testing.T) {
			sched, p := newTestEnv(t)
			var recs []*platform.InvocationRecord
			e := newEngine(t, p, wl, mode, StaticPlans{Hourly: dag.Uniform(plan)}, &recs)
			for _, n := range []dag.NodeID{"profanity", "censor"} {
				if _, err := e.EnsureDeployment(n, region.CACentral1); err != nil {
					t.Fatal(err)
				}
			}
			runInvocations(t, e, sched, 60, workloads.Small, time.Minute)
			if len(recs) != 60 {
				t.Fatalf("completed %d of 60 invocations", len(recs))
			}
			censored := 0
			for _, r := range recs {
				ran := map[dag.NodeID]bool{}
				for _, ex := range r.Executions {
					ran[ex.Node] = true
					reg, _ := p.Catalogue().Get(ex.Region)
					dur := wl.SampleDuration(ex.Node, workloads.Small, reg.PerfFactor,
						simclock.DeriveRand(seed, legacyLabel(wl.Name, "dur", r.ID, ex.Node)))
					if ex.DurationSec != dur {
						t.Errorf("inv %d %s: duration %v, DeriveRand stream gives %v", r.ID, ex.Node, ex.DurationSec, dur)
					}
					util := wl.Profile(ex.Node).CPUUtil *
						simclock.DeriveRand(seed, legacyLabel(wl.Name, "util", r.ID, ex.Node)).Uniform(0.92, 1.05)
					if util > 1 {
						util = 1
					}
					if ex.CPUUtil != util {
						t.Errorf("inv %d %s: CPU utilization %v, DeriveRand stream gives %v", r.ID, ex.Node, ex.CPUUtil, util)
					}
				}
				taken := simclock.DeriveRand(seed, legacyLabel(wl.Name, "branch", r.ID, "profanity", "censor")).Bool(0.5)
				if ran["censor"] != taken {
					t.Errorf("inv %d: censor ran = %v, DeriveRand branch draw says %v", r.ID, ran["censor"], taken)
				}
				if taken {
					censored++
				}
			}
			if censored == 0 || censored == len(recs) {
				t.Errorf("branch taken in %d of %d invocations; the test needs both outcomes", censored, len(recs))
			}
		})
	}
}

// TestHopAllocationBudget pins the heap work of a simulated hop. What
// remains per node execution is the event machinery itself — scheduler
// events and their closures, the broker's message copy, the record's
// maps, DAG edge-list copies — measured at 11.5 allocations per node
// execution in Caribou mode and 7.0 under Step Functions. A fresh stream
// per decision (3 allocations per draw, 2–3 draws per execution), a
// Sprintf'd topic or label, or a JSON envelope round trip each push the
// average past its ceiling.
func TestHopAllocationBudget(t *testing.T) {
	ceilings := map[Mode]float64{ModeCaribou: 13, ModeStepFunctions: 9}
	for _, mode := range []Mode{ModeCaribou, ModeStepFunctions} {
		t.Run(mode.String(), func(t *testing.T) {
			sched, p := newTestEnv(t)
			var recs []*platform.InvocationRecord
			e := newEngine(t, p, workloads.Text2SpeechCensoring(), mode, HomeOnly{}, &recs)
			perInv := testing.AllocsPerRun(200, func() {
				if _, err := e.Invoke(workloads.Small); err != nil {
					t.Fatal(err)
				}
				sched.Run()
			})
			execs := 0
			for _, r := range recs {
				execs += len(r.Executions)
			}
			perExec := perInv / (float64(execs) / float64(len(recs)))
			if perExec > ceilings[mode] {
				t.Errorf("%.2f allocations per node execution (%.0f per invocation), ceiling %.0f",
					perExec, perInv, ceilings[mode])
			}
		})
	}
}
