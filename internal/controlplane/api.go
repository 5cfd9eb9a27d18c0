// api.go is the HTTP/JSON surface of the control plane. All request and
// response times are RFC 3339 UTC; plan bodies are deterministic (Go's
// encoding/json sorts map keys) so a scripted request sequence against a
// SimClock-backed server is byte-reproducible.
package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"caribou/internal/manager"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/workflows", s.handleRegister)
	s.mux.HandleFunc("POST /v1/workflows/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/workflows/{id}/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/workflows/{id}/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

// writeJSON encodes v with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds register and trace request bodies; real ones are a
// few hundred bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes exactly one JSON value from a request body of at
// most maxBodyBytes into v. On failure it writes the response itself —
// 413 for an oversize body, 400 for malformed JSON or anything but
// whitespace after the value — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	trailing := false
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		trailing = true
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	case trailing:
		writeError(w, http.StatusBadRequest, "bad request body: trailing data after JSON value")
	default:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// writeOverloaded maps admission-control rejection to 429. Retry-After is
// a static hint, not a wall-clock computation.
func (s *Server) writeOverloaded(w http.ResponseWriter) {
	s.rejections.Add(1)
	s.tel.rejections.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "shard queue full; retry later")
}

// RegisterRequest is the POST /v1/workflows body.
type RegisterRequest struct {
	// ID names the workflow; empty assigns wf-<n>.
	ID string `json:"id,omitempty"`
	// Workload picks one of the built-in workload profiles.
	Workload string `json:"workload"`
	// Home is the workflow's home region (default aws:us-east-1).
	Home string `json:"home,omitempty"`
	// Regions restricts the candidate set (default: the evaluation
	// four).
	Regions []string `json:"regions,omitempty"`
	// Priority is carbon, cost, or latency (default carbon).
	Priority string `json:"priority,omitempty"`
	// Granularity is hourly or daily (default hourly): the ceiling the
	// token budget may afford, not a guarantee.
	Granularity string `json:"granularity,omitempty"`
	// InitialTokens jump-starts the learning phase; zero grants twice
	// the daily solve cost so registration yields an initial plan.
	InitialTokens float64 `json:"initial_tokens,omitempty"`
}

// RegisterResponse is the POST /v1/workflows reply.
type RegisterResponse struct {
	ID          string   `json:"id"`
	Workload    string   `json:"workload"`
	Home        string   `json:"home"`
	Regions     []string `json:"regions"`
	Priority    string   `json:"priority"`
	Granularity string   `json:"granularity"`
	Tokens      float64  `json:"tokens"`
	PlanVersion int      `json:"plan_version"`
	ServedAt    string   `json:"served_at"`
}

func parsePriority(s string) (solver.Priority, error) {
	switch s {
	case "", "carbon":
		return solver.PriorityCarbon, nil
	case "cost":
		return solver.PriorityCost, nil
	case "latency":
		return solver.PriorityLatency, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want carbon, cost, or latency)", s)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	sp := s.tel.rec.StartSpan("controlplane.register")
	defer sp.End()
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wl, err := workloads.ByName(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	priority, err := parsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hourly := true
	switch req.Granularity {
	case "", "hourly":
	case "daily":
		hourly = false
	default:
		writeError(w, http.StatusBadRequest, "unknown granularity %q (want hourly or daily)", req.Granularity)
		return
	}
	home := region.USEast1
	if req.Home != "" {
		home = region.ID(req.Home)
	}
	regions := make([]region.ID, 0, len(req.Regions))
	for _, id := range req.Regions {
		regions = append(regions, region.ID(id))
	}
	if len(regions) == 0 {
		regions = region.EvaluationFour()
	}
	if _, ok := s.cfg.Catalogue.Get(home); !ok {
		writeError(w, http.StatusBadRequest, "unknown home region %q", home)
		return
	}
	homeListed := false
	for _, id := range regions {
		if _, ok := s.cfg.Catalogue.Get(id); !ok {
			writeError(w, http.StatusBadRequest, "unknown region %q", id)
			return
		}
		if id == home {
			homeListed = true
		}
	}
	if !homeListed {
		writeError(w, http.StatusBadRequest, "region set must include home region %q", home)
		return
	}

	// Reserve the ID before the shard builds the tenant, so a duplicate
	// concurrent registration fails fast instead of racing.
	id := req.ID
	s.mu.Lock()
	if id == "" {
		id = fmt.Sprintf("wf-%d", s.nextID.Add(1))
	}
	if _, exists := s.tenants[id]; exists || s.reserved[id] {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "workflow %q already registered", id)
		return
	}
	s.reserved[id] = true
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		delete(s.reserved, id)
		s.mu.Unlock()
	}

	spec := TenantSpec{
		ID:            id,
		Workload:      wl,
		Home:          home,
		Regions:       regions,
		Priority:      priority,
		Hourly:        hourly,
		InitialTokens: req.InitialTokens,
		Seed:          TenantSeed(s.cfg.Seed, id),
	}
	var tenant *Tenant
	solveStart := s.clk.Now()
	err = s.shardOf(id).submit(func() error {
		var err error
		tenant, err = newTenant(spec, s.cfg.Catalogue, s.src, s.cfg.Start, s.cfg.MaxIterations)
		return err
	})
	if errors.Is(err, ErrOverloaded) {
		release()
		s.writeOverloaded(w)
		return
	}
	if err != nil {
		release()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.tel.solveLatency.Observe(s.clk.Now().Sub(solveStart).Seconds())

	s.mu.Lock()
	delete(s.reserved, id)
	s.tenants[id] = tenant
	s.mu.Unlock()
	s.registered.Add(1)
	s.tel.registers.Inc()
	version := 0
	if snap := tenant.Plan(); snap != nil {
		version = snap.Version
		s.solves.Add(1)
	}
	sp.Annotate(telemetry.String("workflow", id), telemetry.Int("plan_version", int64(version)))
	resp := RegisterResponse{
		ID:          id,
		Workload:    wl.Name,
		Home:        string(home),
		Regions:     req.Regions,
		Priority:    priority.String(),
		Granularity: map[bool]string{true: "hourly", false: "daily"}[hourly],
		Tokens:      tenant.Tokens(),
		PlanVersion: version,
		ServedAt:    s.clk.Now().UTC().Format(time.RFC3339Nano),
	}
	if resp.Regions == nil {
		for _, rid := range regions {
			resp.Regions = append(resp.Regions, string(rid))
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// TraceRequest is the POST /v1/workflows/{id}/trace body: one aggregate
// arrival delta. A zero-invocation delta is a heartbeat that only
// advances the tenant's virtual time.
type TraceRequest struct {
	// At is the delta's virtual timestamp (RFC 3339). Tenant virtual
	// time advances monotonically to the maximum At seen.
	At string `json:"at"`
	// Invocations is the number of arrivals in this delta.
	Invocations int `json:"invocations"`
	// Class is small or large (default small).
	Class string `json:"class,omitempty"`
	// MeanRuntimeSec overrides the workload's analytic mean service time
	// for token accrual.
	MeanRuntimeSec float64 `json:"mean_runtime_sec,omitempty"`
}

// TraceResponse reports what the delta did.
type TraceResponse struct {
	ID          string  `json:"id"`
	VirtualTime string  `json:"virtual_time"`
	Earned      float64 `json:"earned"`
	Tokens      float64 `json:"tokens"`
	Solved      bool    `json:"solved"`
	Skipped     bool    `json:"skipped"`
	Granularity string  `json:"granularity,omitempty"`
	NextCheck   string  `json:"next_check"`
	PlanVersion int     `json:"plan_version"`
	ServedAt    string  `json:"served_at"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sp := s.tel.rec.StartSpan("controlplane.trace")
	defer sp.End()
	id := r.PathValue("id")
	tenant, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown workflow %q", id)
		return
	}
	var req TraceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	at, err := time.Parse(time.RFC3339, req.At)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad at timestamp: %v", err)
		return
	}
	if req.Invocations < 0 {
		writeError(w, http.StatusBadRequest, "invocations must be non-negative")
		return
	}
	class := workloads.Small
	switch req.Class {
	case "", "small":
	case "large":
		class = workloads.Large
	default:
		writeError(w, http.StatusBadRequest, "unknown class %q (want small or large)", req.Class)
		return
	}

	var res DeltaResult
	solveStart := s.clk.Now()
	err = s.shardOf(id).submit(func() error {
		var err error
		res, err = tenant.OnDelta(Delta{At: at, Invocations: req.Invocations, Class: class, MeanRuntimeSec: req.MeanRuntimeSec})
		return err
	})
	if errors.Is(err, ErrOverloaded) {
		s.writeOverloaded(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if res.Solved {
		s.solves.Add(1)
		s.tel.solveLatency.Observe(s.clk.Now().Sub(solveStart).Seconds())
	}
	if res.Skipped {
		s.skips.Add(1)
	}
	s.deltas.Add(1)
	s.tel.deltas.Inc()
	sp.Annotate(telemetry.String("workflow", id), telemetry.Int("invocations", int64(req.Invocations)))

	version := 0
	if snap := tenant.Plan(); snap != nil {
		version = snap.Version
	}
	resp := TraceResponse{
		ID:          id,
		VirtualTime: tenant.VNow().Format(time.RFC3339Nano),
		Earned:      res.Earned,
		Tokens:      res.Tokens,
		Solved:      res.Solved,
		Skipped:     res.Skipped,
		NextCheck:   res.NextDue.UTC().Format(time.RFC3339Nano),
		PlanVersion: version,
		ServedAt:    s.clk.Now().UTC().Format(time.RFC3339Nano),
	}
	if res.Solved {
		resp.Granularity = res.Granularity.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// PlanResponse is the GET /v1/workflows/{id}/plan body. Assignments is
// the plan serving traffic at the tenant's current virtual time; Hours
// carries the full 24-plan set. served_at is the only field the serving
// clock influences.
type PlanResponse struct {
	ID          string              `json:"id"`
	Version     int                 `json:"version"`
	Granularity string              `json:"granularity"`
	GeneratedAt string              `json:"generated_at"`
	ExpiresAt   string              `json:"expires_at"`
	VirtualTime string              `json:"virtual_time"`
	Stale       bool                `json:"stale"`
	Assignments map[string]string   `json:"assignments"`
	Hours       []map[string]string `json:"hours,omitempty"`
	CarbonMean  float64             `json:"carbon_mean_g"`
	LatencyMean float64             `json:"latency_mean_sec"`
	CostMean    float64             `json:"cost_mean_usd"`
	ServedAt    string              `json:"served_at"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := s.clk.Now()
	id := r.PathValue("id")
	tenant, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown workflow %q", id)
		return
	}
	snap := tenant.Plan()
	if snap == nil {
		writeError(w, http.StatusNotFound, "workflow %q has no plan yet", id)
		return
	}
	vnow := tenant.VNow()
	resp := PlanResponse{
		ID:          id,
		Version:     snap.Version,
		Granularity: snap.Granularity.String(),
		GeneratedAt: snap.GeneratedAt.UTC().Format(time.RFC3339Nano),
		ExpiresAt:   snap.ExpiresAt.UTC().Format(time.RFC3339Nano),
		VirtualTime: vnow.Format(time.RFC3339Nano),
		Stale:       snap.Stale(vnow),
		Assignments: make(map[string]string),
		CarbonMean:  snap.CarbonMean,
		LatencyMean: snap.LatencyMean,
		CostMean:    snap.CostMean,
		ServedAt:    s.clk.Now().UTC().Format(time.RFC3339Nano),
	}
	for n, rid := range snap.PlanAt(vnow) {
		resp.Assignments[string(n)] = string(rid)
	}
	if r.URL.Query().Get("hours") == "all" {
		resp.Hours = make([]map[string]string, 24)
		for h := range snap.Plans {
			m := make(map[string]string, len(snap.Plans[h]))
			for n, rid := range snap.Plans[h] {
				m[string(n)] = string(rid)
			}
			resp.Hours[h] = m
		}
	}
	s.queries.Add(1)
	s.tel.queries.Inc()
	s.tel.queryLatency.Observe(s.clk.Now().Sub(start).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// SolveResponse is the POST /v1/workflows/{id}/solve reply.
type SolveResponse struct {
	ID          string  `json:"id"`
	Granularity string  `json:"granularity"`
	PlanVersion int     `json:"plan_version"`
	Tokens      float64 `json:"tokens"`
	ServedAt    string  `json:"served_at"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	sp := s.tel.rec.StartSpan("controlplane.force_solve")
	defer sp.End()
	id := r.PathValue("id")
	tenant, ok := s.tenant(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown workflow %q", id)
		return
	}
	var g manager.Granularity
	solveStart := s.clk.Now()
	err := s.shardOf(id).submit(func() error {
		var err error
		g, err = tenant.ForceCheck(tenant.VNow())
		return err
	})
	if errors.Is(err, ErrOverloaded) {
		s.writeOverloaded(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if g == manager.GranularityNone {
		writeError(w, http.StatusConflict, "workflow %q: insufficient tokens for a solve", id)
		return
	}
	s.solves.Add(1)
	s.tel.solveLatency.Observe(s.clk.Now().Sub(solveStart).Seconds())
	sp.Annotate(telemetry.String("workflow", id), telemetry.String("granularity", g.String()))
	version := 0
	if snap := tenant.Plan(); snap != nil {
		version = snap.Version
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		ID:          id,
		Granularity: g.String(),
		PlanVersion: version,
		Tokens:      tenant.Tokens(),
		ServedAt:    s.clk.Now().UTC().Format(time.RFC3339Nano),
	})
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Tenants     int    `json:"tenants"`
	Shards      int    `json:"shards"`
	QueueDepths []int  `json:"queue_depths"`
	Registered  int64  `json:"registered"`
	Deltas      int64  `json:"deltas"`
	PlanQueries int64  `json:"plan_queries"`
	Solves      int64  `json:"solves"`
	SolveSkips  int64  `json:"solve_skips"`
	Rejections  int64  `json:"rejections"`
	ServedAt    string `json:"served_at"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	depths := make([]int, len(s.shards))
	for i, sh := range s.shards {
		depths[i] = len(sh.jobs)
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Tenants:     s.Tenants(),
		Shards:      len(s.shards),
		QueueDepths: depths,
		Registered:  s.registered.Load(),
		Deltas:      s.deltas.Load(),
		PlanQueries: s.queries.Load(),
		Solves:      s.solves.Load(),
		SolveSkips:  s.skips.Load(),
		Rejections:  s.rejections.Load(),
		ServedAt:    s.clk.Now().UTC().Format(time.RFC3339Nano),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
