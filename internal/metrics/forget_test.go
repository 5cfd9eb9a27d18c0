package metrics

import (
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
)

// refForget is the sliding-window algorithm in its original form: it
// rebuilds the node-region coverage counts over the whole window on every
// pass past the record cap. TestForgetMatchesReference holds the
// incremental Manager.forget to it.
func refForget(records []*platform.InvocationRecord, now time.Time) []*platform.InvocationRecord {
	cutoff := now.Add(-MaxAge)
	kept := records[:0]
	for _, r := range records {
		if r.End.After(cutoff) {
			kept = append(kept, r)
		}
	}
	records = kept
	if len(records) <= MaxRecords {
		return records
	}
	coverage := map[execKey]int{}
	for _, r := range records {
		for _, e := range r.Executions {
			coverage[execKey{e.Node, e.Region}]++
		}
	}
	uniqueInfo := func(r *platform.InvocationRecord) bool {
		for _, e := range r.Executions {
			if coverage[execKey{e.Node, e.Region}] <= 1 {
				return true
			}
		}
		return false
	}
	excess := len(records) - MaxRecords
	kept = records[:0]
	for _, r := range records {
		if excess > 0 && !uniqueInfo(r) {
			for _, e := range r.Executions {
				coverage[execKey{e.Node, e.Region}]--
			}
			excess--
			continue
		}
		kept = append(kept, r)
	}
	return kept
}

// randomRecord fabricates a record executing one to three random stages.
// Most executions land in two common regions; rare regions make some
// node-region pairs unique to a handful of records, so selective
// forgetting has records to retain.
func randomRecord(rng *simclock.Rand, id uint64, end time.Time) *platform.InvocationRecord {
	nodes := allNodes()
	common := []region.ID{region.USEast1, region.CACentral1}
	rare := []region.ID{region.USWest1, region.USWest2}
	var picked []dag.NodeID
	for _, i := range rng.Perm(len(nodes))[:1+rng.Intn(3)] {
		picked = append(picked, nodes[i])
	}
	rec := record(id, end, common[rng.Intn(len(common))], picked...)
	for i := range rec.Executions {
		if rng.Bool(0.002) {
			rec.Executions[i].Region = rare[rng.Intn(len(rare))]
		}
	}
	return rec
}

func TestForgetMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests past the 5,000-record cap")
	}
	for _, seed := range []int64{1, 2} {
		rng := simclock.DeriveRand(seed, "forget-test")
		m, _ := newManager(t)
		var ref []*platform.InvocationRecord
		end := t0
		// Steps average 7.5 minutes, so 5,000 records span about 26
		// days: the window passes the record cap, and records that
		// selective forgetting retains later age out past 30 days. A
		// 31-day gap early on empties the window by age alone, and rare
		// stragglers end 27–29 days before their neighbours, older than
		// anything else in the window.
		const gapAt, n = 1000, 1000 + MaxRecords + 400
		for i := 0; i < n; i++ {
			switch {
			case i == gapAt:
				end = end.Add(31 * 24 * time.Hour)
			case rng.Bool(0.05):
				// Out-of-order completion.
				end = end.Add(-time.Duration(rng.Intn(600)) * time.Second)
			default:
				end = end.Add(time.Duration(rng.Intn(900)) * time.Second)
			}
			recEnd := end
			if rng.Bool(0.003) {
				recEnd = end.Add(-time.Duration(27+rng.Intn(3)) * 24 * time.Hour)
			}
			rec := randomRecord(rng, uint64(i), recEnd)
			m.Ingest(rec)
			ref = refForget(append(ref, rec), rec.End)
			got := m.Records()
			if len(got) != len(ref) {
				t.Fatalf("seed %d ingest %d: window holds %d records, reference %d", seed, i, len(got), len(ref))
			}
			for j := range ref {
				if got[j] != ref[j] {
					t.Fatalf("seed %d ingest %d: window[%d] is record %d, reference keeps %d", seed, i, j, got[j].ID, ref[j].ID)
				}
			}
		}
		if len(ref) < MaxRecords {
			t.Errorf("seed %d: window ended below the %d-record cap (%d records)", seed, MaxRecords, len(ref))
		}
		checkCoverage(t, m)
	}
}

// checkCoverage asserts the incremental counts equal a rebuild over the
// window.
func checkCoverage(t *testing.T, m *Manager) {
	t.Helper()
	want := map[execKey]int{}
	for _, r := range m.Records() {
		for _, e := range r.Executions {
			want[execKey{e.Node, e.Region}]++
		}
	}
	if len(want) != len(m.coverage) {
		t.Fatalf("coverage tracks %d pairs, window has %d", len(m.coverage), len(want))
	}
	for k, n := range want {
		if m.coverage[k] != n {
			t.Errorf("coverage[%v] = %d, window count %d", k, m.coverage[k], n)
		}
	}
}
