package montecarlo

import (
	"sync"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
)

// deltaPair estimates a base plan and a neighbour that differs from it by
// a plan delta the way an HBSS round does — one EstimateBatch call over
// the candidate group — and requires both results to be bit-identical to
// full standalone replay of each plan (struct equality covers every float
// field and the sample count).
func deltaPair(t *testing.T, snap *Snapshot, basePlan, plan dag.Plan, h int) {
	t.Helper()
	baseAssign, err := snap.Assign(basePlan)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := snap.Assign(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snap.EstimateBatch([][]int{baseAssign, assign}, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range [][]int{baseAssign, assign} {
		want, err := snap.Estimate(a, h)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || *got[i] != *want {
			t.Errorf("hour %d: group %v→%v lane %d = %+v, full replay %+v", h, basePlan, plan, i, got[i], want)
		}
	}
}

// overlay returns a copy of base with the entries of over replacing it.
func overlay(base, over dag.Plan) dag.Plan {
	p := dag.Plan{}
	for k, v := range base {
		p[k] = v
	}
	for k, v := range over {
		p[k] = v
	}
	return p
}

// TestEstimateDeltaBitIdenticalToFull sweeps base→neighbour pairs of every
// shape an HBSS round proposes — single-node diffs late and mid-workflow,
// a diff at the entry node, multi-node diffs, an already offloaded base,
// and the identical plan — across hours, on the sync-rich workflow. Each
// group estimate must be bit-identical to full replay.
func TestEstimateDeltaBitIdenticalToFull(t *testing.T) {
	in := richInputs(t)
	hours := []time.Time{t0, t0.Add(time.Hour), t0.Add(7 * time.Hour)}
	snap, err := New(in, carbon.BestCase(), 11).Compile(nil, hours, t0)
	if err != nil {
		t.Fatal(err)
	}
	home := dag.NewHomePlan(in.d, region.USEast1)
	pairs := []struct {
		name       string
		base, plan dag.Plan
	}{
		{"late-single", home, overlay(home, dag.Plan{"tail": region.CACentral1})},
		{"mid-single", home, overlay(home, dag.Plan{"join": region.USWest2})},
		{"entry-diff", home, overlay(home, dag.Plan{"start": region.CACentral1})},
		{"multi-late", home, overlay(home, dag.Plan{"join": region.CACentral1, "tail": region.USWest2})},
		{"multi-spanning", home, overlay(home, dag.Plan{"left": region.USWest2, "tail": region.CACentral1})},
		{"base-offloaded", overlay(home, dag.Plan{"join": region.USWest2}), overlay(home, dag.Plan{"join": region.USWest2, "tail": region.CACentral1})},
		{"identical", home, home},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			for h := range hours {
				deltaPair(t, snap, pc.base, pc.plan, h)
			}
		})
	}
}

// TestDeltaSkipConeCrossesSync covers neighbours whose diff lies at or
// past the join, where a conditionally skipped branch (start→left has
// p=0.7, so some samples skip-propagate into the join) meets the join's
// sync wait: the group sweep must still reproduce full replay exactly.
func TestDeltaSkipConeCrossesSync(t *testing.T) {
	in := richInputs(t)
	hours := []time.Time{t0, t0.Add(3 * time.Hour)}
	snap, err := New(in, carbon.BestCase(), 29).Compile(nil, hours, t0)
	if err != nil {
		t.Fatal(err)
	}
	home := dag.NewHomePlan(in.d, region.USEast1)
	for _, tail := range []region.ID{region.CACentral1, region.USWest2} {
		for _, join := range []region.ID{region.USEast1, region.CACentral1} {
			p := overlay(home, dag.Plan{"join": join, "tail": tail})
			for h := range hours {
				deltaPair(t, snap, home, p, h)
			}
		}
	}
}

// TestDeltaHeavyTailConcurrentParity runs neighbour groups past the first
// tape block: heavy-tail exec durations keep every estimate running over
// several BatchSize blocks, which are compiled lazily while replay is in
// flight. Eight goroutines share one fresh snapshot (put under -race by
// `make verify`) and each must match serial full replay bit for bit;
// worker count 1 is the plain deltaPair call on a second snapshot.
func TestDeltaHeavyTailConcurrentParity(t *testing.T) {
	in := &heavyTailInputs{fakeInputs: richInputs(t)}
	compile := func() *Snapshot {
		snap, err := New(in, carbon.BestCase(), 17).Compile(nil, []time.Time{t0}, t0)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	home := dag.NewHomePlan(in.d, region.USEast1)
	neighbour := overlay(home, dag.Plan{"tail": region.CACentral1})

	// Serial (worker count 1), which also yields the reference estimates.
	ref := compile()
	deltaPair(t, ref, home, neighbour, 0)
	var want [2]*Estimate
	for i, p := range []dag.Plan{home, neighbour} {
		a, err := ref.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = ref.Estimate(a, 0); err != nil {
			t.Fatal(err)
		}
		if want[i].Samples <= BatchSize {
			t.Fatalf("heavy-tail fixture must outrun the first block (%d samples), converged at %d",
				BatchSize, want[i].Samples)
		}
	}

	// Concurrent (worker count 8) on a snapshot whose tape starts empty.
	snap := compile()
	baseAssign, err := snap.Assign(home)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := snap.Assign(neighbour)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make([]error, goroutines)
	got := make([][]*Estimate, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = snap.EstimateBatch([][]int{baseAssign, assign}, 0, nil)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range want {
			if got[g][i] == nil || *got[g][i] != *want[i] {
				t.Errorf("goroutine %d lane %d diverged from full replay: %+v vs %+v", g, i, got[g][i], want[i])
			}
		}
	}
}
