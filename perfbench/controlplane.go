package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"caribou/internal/controlplane"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// The controlplane workload is an open loop against an in-process
// controlplane.Server: requests go to ServeHTTP on a fixed schedule,
// whatever the server's speed, and each one's latency runs from its
// intended send time.
//
// The traffic is the repository's own control-plane driver's,
// cmd/caribou-load: every tenant registers image-processing, and trace
// deltas and plan queries mix 3 to 5 (its default -deltas 3 -queries 5),
// each delta reporting 200 invocations one virtual hour after the last.
// The tenant count is that of the in-process caribou-load pass in
// `make bench`; caribou-load's default of 10,000 tenants would take
// minutes to register. The offered rate is a fixed share of the
// saturation rate that -capacity measures (see README.md).
const (
	// cpTenants is how many workflows register during set-up.
	cpTenants = 64
	// cpWorkload is the workflow profile every tenant registers.
	cpWorkload = "image-processing"
	// cpRate is the offered load in requests per second, about 5% of the
	// saturation rate -capacity measured on a 2-vCPU host. It stays low
	// because the server keeps every delta's records in the tenant's
	// metric window, so memory grows with the deltas a run sends.
	cpRate = 200
	// Of every cpDeltas+cpQueries requests, cpDeltas are trace deltas and
	// the rest plan queries. Deltas go to tenants round-robin.
	cpDeltas, cpQueries = 3, 5
	// cpDeltaStep is how far each trace delta advances its tenant's
	// virtual time. After its first re-solve a tenant solves again 7 to
	// 48 virtual hours later.
	cpDeltaStep = time.Hour
	// cpDeltaInvocations is the arrival count every trace delta reports.
	cpDeltaInvocations = 200
	// Set-up sends the tenants from cpWarmMin up to cpWarmMax deltas,
	// spread evenly. With one-hour deltas a tenant's first re-solve falls
	// due 47 virtual hours after registration, so some tenant comes due
	// in every stretch of the run from its first second.
	cpWarmMin, cpWarmMax = 4, 47
	// cpInFlight bounds concurrent requests; the sender blocks (and runs
	// late) beyond it.
	cpInFlight = 256
	// cpServerSeed fixes the server's own seed (its carbon traces and
	// tenant seeds). The run seed varies the traffic: the order deltas
	// visit tenants and which plan each query reads.
	cpServerSeed = 1
	// cpProbeSeconds is the open-loop length of the control-plane probe
	// other workloads' traced runs make.
	cpProbeSeconds = 1
)

// cpHorizon is the server's Horizon for a run of n requests: the default
// (zero, 14 days) unless the run's deltas would carry a tenant past it.
// A traced run sends each tenant one more delta after the load.
func cpHorizon(n int) time.Duration {
	deltas := n * cpDeltas / (cpDeltas + cpQueries)
	perTenant := cpWarmMax + deltas/cpTenants + 2
	if h := time.Duration(perTenant) * cpDeltaStep; h > 14*24*time.Hour {
		return h
	}
	return 0
}

type cpTenant struct {
	id     string
	nodes  map[string]bool
	deltas int // trace deltas scheduled so far
}

// cpRequest is one scheduled request.
type cpRequest struct {
	offset time.Duration
	method string
	path   string
	body   string
	tenant *cpTenant
	delta  bool
	at     string // delta virtual time, to check the reply
	// after is closed when the tenant's previous delta has completed:
	// one tenant's deltas apply in schedule order.
	after <-chan struct{}
	done  chan struct{}
}

// cpResult is one request's measured outcome.
type cpResult struct {
	latency time.Duration
	late    time.Duration
	err     string
}

// cpServer is a set-up server with its registered tenants.
type cpServer struct {
	srv      *controlplane.Server
	tenants  []*cpTenant
	register []float64 // registration latencies, ms
}

func do(srv *controlplane.Server, method, path, body string) (int, []byte) {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// setupControlPlane builds a server with default shards and queue depth,
// sized for a run of n requests, registers cpTenants workflows,
// each with its initial plan, and sends each its warm deltas.
func setupControlPlane(n int, tr *tracer) (*cpServer, error) {
	sp := tr.begin("controlplane.setup", spanRef{})
	defer sp.end()
	srv, err := controlplane.New(controlplane.Config{Seed: cpServerSeed, Horizon: cpHorizon(n)})
	if err != nil {
		return nil, err
	}
	wl, err := workloads.ByName(cpWorkload)
	if err != nil {
		srv.Close()
		return nil, err
	}
	cs := &cpServer{srv: srv}
	for i := 0; i < cpTenants; i++ {
		t := &cpTenant{id: fmt.Sprintf("t%03d", i), nodes: map[string]bool{}}
		for _, n := range wl.DAG.Nodes() {
			t.nodes[string(n)] = true
		}
		rs := tr.begin("controlplane.register", sp)
		t0 := wallNow()
		code, body := do(srv, "POST", "/v1/workflows", fmt.Sprintf(`{"id":%q,"workload":%q}`, t.id, cpWorkload))
		cs.register = append(cs.register, ms(since(t0)))
		rs.end()
		if code != http.StatusCreated {
			srv.Close()
			return nil, fmt.Errorf("register %s: status %d: %s", t.id, code, body)
		}
		cs.tenants = append(cs.tenants, t)
	}
	for i, t := range cs.tenants {
		for k := 0; k < cpWarmMin+i*(cpWarmMax-cpWarmMin)/cpTenants; k++ {
			if err := cs.delta(t, tr, sp); err != nil {
				srv.Close()
				return nil, err
			}
		}
	}
	return cs, nil
}

// delta sends tenant t its next trace delta and checks the reply.
func (cs *cpServer) delta(t *cpTenant, tr *tracer, parent spanRef) error {
	r := t.nextDelta()
	sp := tr.begin("controlplane.delta", parent)
	code, body := do(cs.srv, r.method, r.path, r.body)
	sp.end()
	if msg := checkReply(r, code, body); msg != "" {
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// nextDelta builds the tenant's next trace delta, cpDeltaStep of
// virtual time after its previous one.
func (t *cpTenant) nextDelta() *cpRequest {
	t.deltas++
	at := controlplane.DefaultStart.Add(time.Duration(t.deltas) * cpDeltaStep).Format(time.RFC3339)
	return &cpRequest{
		method: "POST", path: "/v1/workflows/" + t.id + "/trace",
		body:   fmt.Sprintf(`{"at":%q,"invocations":%d}`, at, cpDeltaInvocations),
		tenant: t, delta: true, at: at,
	}
}

// setupControlPlaneReps sets up cpSetupReps servers, keeps the last, and
// returns the median set-up time.
func setupControlPlaneReps(n int, tr *tracer) (*cpServer, float64, error) {
	var cs *cpServer
	var times []float64
	for i := 0; i < cpSetupReps; i++ {
		if cs != nil {
			cs.srv.Close()
		}
		// Each rep starts from the same heap: the previous server's
		// garbage is collected outside the timed part.
		runtime.GC()
		t0 := wallNow()
		var err error
		cs, err = setupControlPlane(n, tr)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, since(t0).Seconds())
	}
	return cs, median(times), nil
}

// schedule generates n requests at the offered rate's spacing from the
// seed: the order deltas visit tenants, and which tenant each query
// reads. Every tenant's own delta sequence is the same for every seed,
// so the solve work per run is too.
func (cs *cpServer) schedule(seed int64, n int) []*cpRequest {
	rng := simclock.DeriveRand(seed, "perfbench/controlplane/schedule")
	defer rng.Release()
	spacing := time.Second / cpRate
	reqs := make([]*cpRequest, n)
	last := map[*cpTenant]chan struct{}{}
	// Deltas visit tenants round-robin in a seeded order.
	rotation := make([]*cpTenant, len(cs.tenants))
	for i, j := range rng.Perm(len(rotation)) {
		rotation[i] = cs.tenants[j]
	}
	next := 0
	for i := range reqs {
		var r *cpRequest
		// Spreads the cpDeltas deltas evenly over each cpDeltas+cpQueries
		// requests.
		if i*cpDeltas%(cpDeltas+cpQueries) < cpDeltas {
			t := rotation[next%len(rotation)]
			next++
			r = t.nextDelta()
			r.after = last[t]
			r.done = make(chan struct{})
			last[t] = r.done
		} else {
			t := cs.tenants[rng.Intn(len(cs.tenants))]
			r = &cpRequest{method: "GET", path: "/v1/workflows/" + t.id + "/plan", tenant: t}
		}
		r.offset = time.Duration(i) * spacing
		reqs[i] = r
	}
	return reqs
}

// openLoop sends every request at its intended time and waits for all
// of them. Each request runs on its own goroutine (at most cpInFlight at
// once); the process's Go code still runs on GOMAXPROCS threads.
func (cs *cpServer) openLoop(reqs []*cpRequest) []cpResult {
	results := make([]cpResult, len(reqs))
	sem := make(chan struct{}, cpInFlight)
	var wg sync.WaitGroup
	start := wallNow().Add(10 * time.Millisecond)
	for i, r := range reqs {
		due := start.Add(r.offset)
		waitUntil(due)
		sem <- struct{}{}
		results[i].late = since(due)
		wg.Add(1)
		//caribou:allow goroutines one sender goroutine per in-flight request keeps the load open-loop; the semaphore bounds them and wg.Wait joins them
		go func(i int, r *cpRequest, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			if r.after != nil {
				<-r.after
			}
			code, body := do(cs.srv, r.method, r.path, r.body)
			results[i].latency = since(due)
			if r.done != nil {
				close(r.done)
			}
			results[i].err = checkReply(r, code, body)
		}(i, r, due)
	}
	wg.Wait()
	return results
}

// waitUntil blocks the calling thread until t. It sleeps in
// nanosleep(2) rather than time.Sleep because the Go runtime's timers
// round sub-millisecond sleeps up to about a millisecond on Linux,
// which would make the sender itself the largest source of lateness.
func waitUntil(t time.Time) {
	if d := t.Sub(wallNow()); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR only cuts the wait short; the request then goes out
		// early by the remainder, which the lateness figures show.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// checkReply validates one reply's status and body; "" means valid.
func checkReply(r *cpRequest, code int, body []byte) string {
	if r.delta {
		if code != http.StatusOK {
			return fmt.Sprintf("trace %s: status %d", r.tenant.id, code)
		}
		var resp controlplane.TraceResponse
		if err := strictDecode(body, &resp); err != nil {
			return fmt.Sprintf("trace %s: %v", r.tenant.id, err)
		}
		at, _ := time.Parse(time.RFC3339, r.at)
		vt, err := time.Parse(time.RFC3339Nano, resp.VirtualTime)
		if resp.ID != r.tenant.id || err != nil || !vt.Equal(at) || resp.PlanVersion < 1 {
			return fmt.Sprintf("trace %s: bad reply %s", r.tenant.id, body)
		}
		return ""
	}
	if code != http.StatusOK {
		return fmt.Sprintf("plan %s: status %d", r.tenant.id, code)
	}
	var plan controlplane.PlanResponse
	if err := strictDecode(body, &plan); err != nil {
		return fmt.Sprintf("plan %s: %v", r.tenant.id, err)
	}
	return validatePlan(r.tenant, plan)
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

var evalFour = func() map[string]bool {
	m := map[string]bool{}
	for _, id := range region.EvaluationFour() {
		m[string(id)] = true
	}
	return m
}()

// validatePlan checks a plan body: it names the tenant, has a version
// and granularity, maps exactly the workflow's nodes onto candidate
// regions, and carries finite positive means.
func validatePlan(t *cpTenant, p controlplane.PlanResponse) string {
	bad := func(why string) string { return fmt.Sprintf("plan %s: %s", t.id, why) }
	if p.ID != t.id || p.Version < 1 || (p.Granularity != "hourly" && p.Granularity != "daily") {
		return bad(fmt.Sprintf("id %q version %d granularity %q", p.ID, p.Version, p.Granularity))
	}
	if msg := validAssign(t, p.Assignments); msg != "" {
		return bad(msg)
	}
	if len(p.Hours) != 0 {
		return bad(fmt.Sprintf("%d hourly plans without ?hours=all", len(p.Hours)))
	}
	for _, v := range []float64{p.CarbonMean, p.LatencyMean, p.CostMean} {
		if !(v > 0) || math.IsInf(v, 0) {
			return bad(fmt.Sprintf("mean %v", v))
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, p.VirtualTime); err != nil {
		return bad(err.Error())
	}
	return ""
}

func validAssign(t *cpTenant, a map[string]string) string {
	if len(a) != len(t.nodes) {
		return fmt.Sprintf("%d assignments for %d nodes", len(a), len(t.nodes))
	}
	for n, r := range a {
		if !t.nodes[n] || !evalFour[r] {
			return fmt.Sprintf("assignment %s -> %s", n, r)
		}
	}
	return ""
}

// stats reads the server's /v1/stats counters.
func (cs *cpServer) stats() (controlplane.StatsResponse, error) {
	var st controlplane.StatsResponse
	code, body := do(cs.srv, "GET", "/v1/stats", "")
	if code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", code)
	}
	return st, strictDecode(body, &st)
}

// loadResult summarizes one open-loop run.
type loadResult struct {
	queryUS, deltaMS, lateMS []float64
	attempted, failed        int
	solves, skips, rejects   int64
}

func (cs *cpServer) runLoad(o *outcome, seed int64, seconds int) (*loadResult, error) {
	before, err := cs.stats()
	if err != nil {
		return nil, err
	}
	reqs := cs.schedule(seed, seconds*cpRate)
	results := cs.openLoop(reqs)
	after, err := cs.stats()
	if err != nil {
		return nil, err
	}
	lr := &loadResult{
		attempted: len(reqs),
		solves:    after.Solves - before.Solves,
		skips:     after.SolveSkips - before.SolveSkips,
		rejects:   after.Rejections - before.Rejections,
	}
	for i, r := range results {
		lr.lateMS = append(lr.lateMS, ms(r.late))
		if r.err != "" {
			lr.failed++
			if lr.failed <= 5 {
				o.fail("%s", r.err)
			}
			continue
		}
		if reqs[i].delta {
			lr.deltaMS = append(lr.deltaMS, ms(r.latency))
		} else {
			lr.queryUS = append(lr.queryUS, float64(r.latency)/1e3)
		}
	}
	if lr.failed > 5 {
		o.fail("%d requests failed in all", lr.failed)
	}
	return lr, nil
}

// requireResolves fails a run in which no trace delta triggered a
// re-solve: the workload exists to put solves behind the serving layer.
func requireResolves(o *outcome, lr *loadResult) {
	if lr.solves == 0 {
		o.fail("controlplane: no re-solve fired during the run")
	}
}

func runControlPlane(seed int64, seconds int) (*outcome, error) {
	cs, setup, err := setupControlPlaneReps(seconds*cpRate, nil)
	if err != nil {
		return nil, err
	}
	defer cs.srv.Close()
	o := &outcome{}
	before := readUsage()
	lr, err := cs.runLoad(o, seed, seconds)
	if err != nil {
		return nil, err
	}
	after := readUsage()
	o.attempted, o.failed = lr.attempted, lr.failed
	requireResolves(o, lr)
	o.add("setup_s", "s", setup)
	o.add("op_ms", "ms", median(lr.queryUS)/1e3)
	perOp(o, before, after, lr.attempted)
	o.add("peak_rss_mb", "MB", peakRSSMB())
	o.note("controlplane: %d tenants, open loop at %d req/s, %d requests", cpTenants, cpRate, lr.attempted)
	o.name("query_p50_us", "us", median(lr.queryUS))
	o.name("query_p99_us", "us", quantile(lr.queryUS, 0.99))
	o.name("mutation_p50_ms", "ms", median(lr.deltaMS))
	o.name("mutation_p99_ms", "ms", quantile(lr.deltaMS, 0.99))
	o.name("failed_share", "ratio", float64(lr.failed)/float64(lr.attempted))
	o.name("late_ms_p99", "ms", quantile(lr.lateMS, 0.99))
	o.name("resolves", "count", float64(lr.solves))
	return o, nil
}

func traceControlPlane(seed int64, seconds int, tr *tracer) (*outcome, error) {
	o := &outcome{}
	if err := traceControlPlaneInto(o, seed, seconds, tr, true); err != nil {
		return nil, err
	}
	return o, traceProbes(o, tr, "controlplane")
}

// serviceQueries times sequential plan queries on an idle server.
func (cs *cpServer) serviceQueries(n int, tr *tracer) ([]float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		t := cs.tenants[i%len(cs.tenants)]
		sp := tr.begin("controlplane.query", spanRef{})
		t0 := wallNow()
		code, body := do(cs.srv, "GET", "/v1/workflows/"+t.id+"/plan", "")
		us = append(us, float64(since(t0))/1e3)
		sp.end()
		if code != http.StatusOK {
			return nil, fmt.Errorf("plan %s: status %d: %s", t.id, code, body)
		}
	}
	return us, nil
}

// traceControlPlaneInto is the traced control-plane run: query service
// time on an untraced server as the overhead reference, then set-up,
// the open loop, and idle query and delta service times on a traced
// server. Work counts and the overhead share are reported only when own
// is set: the controlplane workload itself, not a probe from another.
func traceControlPlaneInto(o *outcome, seed int64, seconds int, tr *tracer, own bool) error {
	telemetry.Disable()
	plain, err := setupControlPlane(seconds*cpRate, nil)
	if err != nil {
		return err
	}
	defer plain.srv.Close()
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	cs, err := setupControlPlane(seconds*cpRate, tr)
	if err != nil {
		return err
	}
	defer cs.srv.Close()
	o.add("controlplane.register_ms_p50", "ms", median(cs.register))

	c0 := readCounters(rec)
	lr, err := cs.runLoad(o, seed, seconds)
	if err != nil {
		return err
	}
	work := readCounters(rec).minus(c0)
	o.add("loadgen.late_ms_p99", "ms", quantile(lr.lateMS, 0.99))
	o.add("controlplane.query_p50_us", "us", median(lr.queryUS))
	o.add("controlplane.query_p99_us", "us", quantile(lr.queryUS, 0.99))
	o.add("controlplane.mutation_p50_ms", "ms", median(lr.deltaMS))
	o.add("controlplane.mutation_p99_ms", "ms", quantile(lr.deltaMS, 0.99))

	// Idle service times, alternating the untraced and traced servers.
	var plainUS, tracedUS []float64
	for i := 0; i < 20; i++ {
		p, err := plain.serviceQueries(50, nil)
		if err != nil {
			return err
		}
		t, err := cs.serviceQueries(50, tr)
		if err != nil {
			return err
		}
		plainUS = append(plainUS, p...)
		tracedUS = append(tracedUS, t...)
	}
	o.add("controlplane.query_service_us", "us", median(tracedUS))
	var deltaMS []float64
	for _, t := range cs.tenants {
		t0 := wallNow()
		if err := cs.delta(t, tr, spanRef{}); err != nil {
			return err
		}
		deltaMS = append(deltaMS, ms(since(t0)))
	}
	o.add("controlplane.delta_service_ms", "ms", median(deltaMS))
	if own {
		o.attempted, o.failed = lr.attempted, lr.failed
		requireResolves(o, lr)
		addWorkCounts(o, work, lr.attempted)
		o.add("controlplane.resolves", "count", float64(lr.solves))
		o.add("controlplane.solve_skips", "count", float64(lr.skips))
		o.add("controlplane.rejections", "count", float64(lr.rejects))
		o.add("telemetry.overhead_share", "ratio", median(tracedUS)/median(plainUS)-1)
	}
	return nil
}

// cpCapacityWorkers are the closed-loop widths -capacity tries, each
// cpCapacityReps times.
var cpCapacityWorkers = []int{2, 8, 32, 64, 128, 256}

const cpCapacityReps = 3

// measureCapacity finds the control plane's saturation rate on this
// host. Per-request work grows with each tenant's history, so it drives
// exactly the request sequence an open-loop run of the given seconds
// sends, closed-loop: each worker sends its next request as soon as its
// last one returns, on a freshly set-up server. It prints the median
// completed requests per second of each width; the highest median is the
// saturation rate that cpRate is a share of.
func measureCapacity(seed int64, seconds int, w io.Writer) error {
	n := seconds * cpRate
	best := 0.0
	for _, workers := range cpCapacityWorkers {
		var rates []float64
		for i := 0; i < cpCapacityReps; i++ {
			cs, err := setupControlPlane(n, nil)
			if err != nil {
				return err
			}
			reqs := cs.schedule(seed, n)
			failed, elapsed := cs.closedLoop(reqs, workers)
			cs.srv.Close()
			if failed > 0 {
				return fmt.Errorf("capacity: %d of %d requests failed with %d workers", failed, n, workers)
			}
			rates = append(rates, float64(n)/elapsed.Seconds())
		}
		best = max(best, median(rates))
		fmt.Fprintf(w, "capacity: %3d workers  %6.0f req/s (median of %d runs of %d requests)\n", workers, median(rates), cpCapacityReps, n)
	}
	fmt.Fprintf(w, "capacity: saturation %.0f req/s; the offered %d req/s is %.1f%% of it\n", best, cpRate, 100*cpRate/best)
	return nil
}

// closedLoop sends reqs in order from the given number of workers, each
// sending its next request when its last one returns. It returns how
// many replies failed their checks and the time taken.
func (cs *cpServer) closedLoop(reqs []*cpRequest, workers int) (failed int, elapsed time.Duration) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := wallNow()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		//caribou:allow goroutines closed-loop capacity workers; a fixed number, joined by wg.Wait
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if r.after != nil {
					<-r.after
				}
				code, body := do(cs.srv, r.method, r.path, r.body)
				if r.done != nil {
					close(r.done)
				}
				if checkReply(r, code, body) != "" {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed, since(start)
}
