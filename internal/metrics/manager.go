// Package metrics implements the Metric Manager (§7): it aggregates
// invocation logs under a 30-day / 5,000-invocation sliding window with
// selective forgetting, learns per-node execution-time and per-edge
// payload-size distributions, tracks conditional-edge frequencies, gathers
// external data (grid carbon intensity, prices, network latency), and
// refits carbon forecasts daily. It exposes everything the Monte Carlo
// estimator and the Deployment Solver consume.
package metrics

import (
	"fmt"
	"sort"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/forecast"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
)

// Window limits of §7.2.
const (
	MaxRecords = 5000
	MaxAge     = 30 * 24 * time.Hour
)

// Manager aggregates metrics for one workflow.
type Manager struct {
	d    *dag.DAG
	home region.ID
	cat  *region.Catalogue
	net  *netmodel.Model
	src  carbon.Source
	book *pricing.Book

	records []*platform.InvocationRecord // window, oldest first
	// oldest is a lower bound on the earliest End in the window; forget
	// scans for aged-out records only when it could find one.
	oldest time.Time
	// coverage counts, per node-region pair, the executions in the
	// window's records that carry it; forget keeps it in step with
	// records on every add and drop.
	coverage map[execKey]int
	// edges is the DAG's edge list and executed Ingest's per-record
	// scratch set, both reused across ingests.
	edges    []dag.Edge
	executed map[dag.NodeID]bool

	exec      map[execKey]*stats.Distribution // duration seconds
	util      map[dag.NodeID]*welford
	edgeBytes map[edgeKey]*stats.Distribution
	edgeSeen  map[edgeKey]*edgeFreq
	entry     *stats.Distribution
	output    map[dag.NodeID]*stats.Distribution
	memory    map[dag.NodeID]float64

	forecasters map[string]*forecast.Model // grid zone -> model
	forecastAt  time.Time                  // trained-through time
}

type execKey struct {
	Node   dag.NodeID
	Region region.ID
}

type edgeKey struct{ From, To dag.NodeID }

type edgeFreq struct{ taken, seen int }

type welford struct {
	n    int
	mean float64
}

func (w *welford) add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// New returns a Metric Manager for the workflow DAG with the given
// external data sources.
func New(d *dag.DAG, home region.ID, cat *region.Catalogue, net *netmodel.Model, src carbon.Source, book *pricing.Book) *Manager {
	return &Manager{
		d: d, home: home, cat: cat, net: net, src: src, book: book,
		coverage:    make(map[execKey]int),
		edges:       d.Edges(),
		executed:    make(map[dag.NodeID]bool),
		exec:        make(map[execKey]*stats.Distribution),
		util:        make(map[dag.NodeID]*welford),
		edgeBytes:   make(map[edgeKey]*stats.Distribution),
		edgeSeen:    make(map[edgeKey]*edgeFreq),
		entry:       stats.NewDistribution(0),
		output:      make(map[dag.NodeID]*stats.Distribution),
		memory:      make(map[dag.NodeID]float64),
		forecasters: make(map[string]*forecast.Model),
	}
}

// Ingest absorbs one finished invocation record into the window and the
// learned distributions, then enforces the window limits.
func (m *Manager) Ingest(rec *platform.InvocationRecord) {
	if rec == nil || rec.Workflow != m.d.Name() {
		return
	}
	if len(m.records) == 0 || rec.End.Before(m.oldest) {
		m.oldest = rec.End
	}
	m.records = append(m.records, rec)
	m.cover(rec, 1)

	executed := m.executed
	clear(executed)
	for _, e := range rec.Executions {
		k := execKey{e.Node, e.Region}
		dist, ok := m.exec[k]
		if !ok {
			dist = stats.NewDistribution(0)
			m.exec[k] = dist
		}
		// Latency learning includes cold-start initialization so the
		// estimator's tail predictions are realistic; cost and carbon
		// accounting use the billed duration only.
		dist.Add(e.DurationSec + e.InitSec)
		u, ok := m.util[e.Node]
		if !ok {
			u = &welford{}
			m.util[e.Node] = u
		}
		u.add(e.CPUUtil)
		m.memory[e.Node] = e.MemoryMB
		executed[e.Node] = true
	}

	for _, t := range rec.Transfers {
		switch t.Kind {
		case platform.TransferPayload, platform.TransferKVData:
			if t.FromNode != "" && t.ToNode != "" {
				k := edgeKey{t.FromNode, t.ToNode}
				dist, ok := m.edgeBytes[k]
				if !ok {
					dist = stats.NewDistribution(0)
					m.edgeBytes[k] = dist
				}
				dist.Add(t.Bytes)
			}
		case platform.TransferEntry:
			m.entry.Add(t.Bytes)
		case platform.TransferOutput:
			if t.FromNode != "" {
				dist, ok := m.output[t.FromNode]
				if !ok {
					dist = stats.NewDistribution(0)
					m.output[t.FromNode] = dist
				}
				dist.Add(t.Bytes)
			}
		}
	}

	// Conditional edge frequencies: an edge counts as seen when its
	// source node executed, taken when its target also executed (for
	// conditional edges this captures the trigger outcome).
	for _, e := range m.edges {
		if !executed[e.From] {
			continue
		}
		f, ok := m.edgeSeen[edgeKey{e.From, e.To}]
		if !ok {
			f = &edgeFreq{}
			m.edgeSeen[edgeKey{e.From, e.To}] = f
		}
		f.seen++
		if executed[e.To] {
			f.taken++
		}
	}

	m.forget(rec.End)
}

// forget enforces the sliding window: records older than 30 days always
// drop; beyond 5,000 records the oldest drop first, except records that
// still carry DAG information (a node-region execution pair) no newer
// record has — those are retained, the selective forgetting of §7.2.
//
// The node-region coverage counts are maintained incrementally (Ingest
// adds, every drop subtracts), so a pass never rebuilds them over the
// window, and the age scan is skipped while no record can have aged out.
func (m *Manager) forget(now time.Time) {
	cutoff := now.Add(-MaxAge)
	if !m.oldest.After(cutoff) {
		kept := m.records[:0]
		for _, r := range m.records {
			if !r.End.After(cutoff) {
				m.cover(r, -1)
				continue
			}
			if len(kept) == 0 || r.End.Before(m.oldest) {
				m.oldest = r.End
			}
			kept = append(kept, r)
		}
		clear(m.records[len(kept):])
		m.records = kept
	}
	excess := len(m.records) - MaxRecords
	if excess <= 0 {
		return
	}
	kept := m.records[:0]
	for _, r := range m.records {
		if excess > 0 && !m.uniqueInfo(r) {
			m.cover(r, -1)
			excess--
			continue
		}
		kept = append(kept, r)
	}
	clear(m.records[len(kept):])
	m.records = kept
}

// cover adds delta to the coverage count of every node-region pair r
// executed, deleting counts that reach zero.
func (m *Manager) cover(r *platform.InvocationRecord, delta int) {
	for _, e := range r.Executions {
		k := execKey{e.Node, e.Region}
		if n := m.coverage[k] + delta; n > 0 {
			m.coverage[k] = n
		} else {
			delete(m.coverage, k)
		}
	}
}

// uniqueInfo reports whether r is the only window record carrying one of
// its node-region pairs.
func (m *Manager) uniqueInfo(r *platform.InvocationRecord) bool {
	for _, e := range r.Executions {
		if m.coverage[execKey{e.Node, e.Region}] <= 1 {
			return true
		}
	}
	return false
}

// WindowSize reports the number of retained records.
func (m *Manager) WindowSize() int { return len(m.records) }

// InvocationsSince counts retained invocations that ended after t.
func (m *Manager) InvocationsSince(t time.Time) int {
	n := 0
	for _, r := range m.records {
		if r.End.After(t) {
			n++
		}
	}
	return n
}

// MeanRuntimeSince returns the mean total execution seconds (summed over
// stages) of invocations ending after t; used by the token accrual of
// §5.2 ("functions with higher invocation counts and longer runtimes
// accumulate more tokens").
func (m *Manager) MeanRuntimeSince(t time.Time) float64 {
	var sum float64
	n := 0
	for _, r := range m.records {
		if !r.End.After(t) {
			continue
		}
		for _, e := range r.Executions {
			sum += e.DurationSec
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Records returns the retained window (oldest first). The slice is shared;
// callers must not mutate it.
func (m *Manager) Records() []*platform.InvocationRecord { return m.records }

// HasExecData reports whether any execution has been observed for node in
// the region.
func (m *Manager) HasExecData(node dag.NodeID, r region.ID) bool {
	d, ok := m.exec[execKey{node, r}]
	return ok && d.Len() > 0
}

// zoneOf resolves a region's grid zone.
func (m *Manager) zoneOf(r region.ID) (string, error) {
	reg, ok := m.cat.Get(r)
	if !ok {
		return "", fmt.Errorf("metrics: unknown region %q", r)
	}
	return reg.GridZone, nil
}

// Regions returns the catalogue's region IDs sorted, a convenience for
// solvers.
func (m *Manager) Regions() []region.ID {
	ids := m.cat.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
