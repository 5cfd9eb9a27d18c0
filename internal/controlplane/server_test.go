package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a SimClock-backed server over the evaluation
// regions. Tests never inject a real clock, so every response body is a
// pure function of the request script.
func newTestServer(t *testing.T, shards int) *Server {
	t.Helper()
	srv, err := New(Config{Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// do runs one request through the in-process handler.
func do(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func register(t *testing.T, srv *Server, body string) RegisterResponse {
	t.Helper()
	w := do(t, srv, "POST", "/v1/workflows", body)
	if w.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", w.Code, w.Body.String())
	}
	return decode[RegisterResponse](t, w)
}

func TestRegisterYieldsInitialPlan(t *testing.T) {
	srv := newTestServer(t, 2)
	resp := register(t, srv, `{"id":"t1","workload":"text2speech-censoring"}`)
	if resp.ID != "t1" || resp.PlanVersion < 1 {
		t.Fatalf("register response: %+v", resp)
	}
	// The default grant covers a daily solve, not an hourly one.
	if resp.Granularity != "hourly" {
		t.Errorf("granularity ceiling = %q", resp.Granularity)
	}

	w := do(t, srv, "GET", "/v1/workflows/t1/plan", "")
	if w.Code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", w.Code, w.Body.String())
	}
	plan := decode[PlanResponse](t, w)
	if plan.Version != resp.PlanVersion || plan.Stale {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Granularity != "daily" {
		t.Errorf("initial plan granularity = %q, want daily (grant covers one daily solve)", plan.Granularity)
	}
	if len(plan.Assignments) == 0 {
		t.Error("plan has no assignments")
	}
	for node, rid := range plan.Assignments {
		if node == "" || !strings.HasPrefix(rid, "aws:") {
			t.Errorf("malformed assignment %q -> %q", node, rid)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := newTestServer(t, 1)
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
		{"bad priority", `{"workload":"image-processing","priority":"speed"}`, http.StatusBadRequest},
		{"bad granularity", `{"workload":"image-processing","granularity":"weekly"}`, http.StatusBadRequest},
		{"unknown region", `{"workload":"image-processing","regions":["aws:mars-1"]}`, http.StatusBadRequest},
		{"home outside set", `{"workload":"image-processing","home":"aws:ca-central-1","regions":["aws:us-east-1","aws:us-west-2"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := do(t, srv, "POST", "/v1/workflows", tc.body); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}

	register(t, srv, `{"id":"dup","workload":"image-processing"}`)
	if w := do(t, srv, "POST", "/v1/workflows", `{"id":"dup","workload":"image-processing"}`); w.Code != http.StatusConflict {
		t.Errorf("duplicate id: status %d, want 409", w.Code)
	}
}

func TestTraceDeltaAccruesAndAdvances(t *testing.T) {
	srv := newTestServer(t, 2)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)

	at := DefaultStart.Add(2 * time.Hour).Format(time.RFC3339)
	w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":200}`, at))
	if w.Code != http.StatusOK {
		t.Fatalf("trace: status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[TraceResponse](t, w)
	if resp.Earned <= 0 {
		t.Errorf("delta earned %v tokens", resp.Earned)
	}
	vt, err := time.Parse(time.RFC3339Nano, resp.VirtualTime)
	if err != nil || !vt.Equal(DefaultStart.Add(2*time.Hour)) {
		t.Errorf("virtual_time = %q err=%v", resp.VirtualTime, err)
	}

	// An older timestamp never rewinds virtual time.
	old := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	w = do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, old))
	resp = decode[TraceResponse](t, w)
	if got, _ := time.Parse(time.RFC3339Nano, resp.VirtualTime); !got.Equal(DefaultStart.Add(2 * time.Hour)) {
		t.Errorf("virtual time rewound to %v", got)
	}
}

func TestTraceValidation(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	at := DefaultStart.Format(time.RFC3339)

	if w := do(t, srv, "POST", "/v1/workflows/ghost/trace", fmt.Sprintf(`{"at":%q,"invocations":1}`, at)); w.Code != http.StatusNotFound {
		t.Errorf("unknown workflow: status %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/trace", `{"at":"yesterday","invocations":1}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad timestamp: status %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":-5}`, at)); w.Code != http.StatusBadRequest {
		t.Errorf("negative invocations: status %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":1,"class":"gigantic"}`, at)); w.Code != http.StatusBadRequest {
		t.Errorf("bad class: status %d", w.Code)
	}
	if w := do(t, srv, "GET", "/v1/workflows/ghost/plan", ""); w.Code != http.StatusNotFound {
		t.Errorf("plan for unknown workflow: status %d", w.Code)
	}
}

// TestRequestBodyLimits pins the register and trace body contract: a body
// over maxBodyBytes gets 413 whether the excess is inside the JSON value
// or after it, anything but whitespace after the value gets 400, trailing
// whitespace (json.Encoder's newline) is accepted, and the next valid
// request on the same server still succeeds.
func TestRequestBodyLimits(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	pad := strings.Repeat("x", maxBodyBytes)
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"register oversize value", "/v1/workflows", `{"id":"` + pad + `","workload":"image-processing"}`, http.StatusRequestEntityTooLarge},
		{"register oversize tail", "/v1/workflows", `{"id":"t2","workload":"image-processing"}` + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
		{"register second value", "/v1/workflows", `{"id":"t2","workload":"image-processing"} {}`, http.StatusBadRequest},
		{"register trailing garbage", "/v1/workflows", `{"id":"t2","workload":"image-processing"}x`, http.StatusBadRequest},
		{"trace oversize value", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"class":%q}`, at, pad), http.StatusRequestEntityTooLarge},
		{"trace second value", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":1}{"at":%q}`, at, at), http.StatusBadRequest},
		{"trace trailing garbage", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":1},`, at), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := do(t, srv, "POST", tc.path, tc.body); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%.200s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}
	// None of the rejected requests registered t2 or moved t1.
	register(t, srv, `{"id":"t2","workload":"image-processing"}`+"\n\t ")
	w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":200}`+"\n", at))
	if w.Code != http.StatusOK {
		t.Fatalf("valid trace after rejections: status %d: %s", w.Code, w.Body.String())
	}
	if resp := decode[TraceResponse](t, w); resp.Earned <= 0 {
		t.Errorf("valid trace after rejections earned %v tokens", resp.Earned)
	}
}

// TestRequestBodyLimitOverHTTP drives an oversize register body through a
// real listener: the client sees 413, and its next request — on a fresh
// connection if the server closed the old one — succeeds.
func TestRequestBodyLimitOverHTTP(t *testing.T) {
	srv := newTestServer(t, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/workflows", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"id":"big","workload":"image-processing","home":"` + strings.Repeat("y", 2*maxBodyBytes) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", code)
	}
	if code := post(`{"id":"ok","workload":"image-processing"}`); code != http.StatusCreated {
		t.Errorf("valid register after 413: status %d, want 201", code)
	}
}

func TestNoTokensNoPlanAndSolveConflict(t *testing.T) {
	srv := newTestServer(t, 1)
	// A vanishingly small explicit grant affords no solve: registration
	// records a skip, the tenant has no plan, and a forced solve is 409.
	resp := register(t, srv, `{"id":"poor","workload":"image-processing","initial_tokens":1e-12}`)
	if resp.PlanVersion != 0 {
		t.Fatalf("plan version = %d for a tokenless tenant", resp.PlanVersion)
	}
	if w := do(t, srv, "GET", "/v1/workflows/poor/plan", ""); w.Code != http.StatusNotFound {
		t.Errorf("plan: status %d, want 404", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/poor/solve", ""); w.Code != http.StatusConflict {
		t.Errorf("solve: status %d, want 409", w.Code)
	}
}

func TestStreamedTrafficFundsResolve(t *testing.T) {
	srv := newTestServer(t, 2)
	reg := register(t, srv, `{"id":"t1","workload":"image-processing"}`)

	// Stream a day of heavy traffic hour by hour; once the next check
	// comes due the accrued tokens fund a re-solve.
	version := reg.PlanVersion
	solved := false
	for h := 1; h <= 72 && !solved; h++ {
		at := DefaultStart.Add(time.Duration(h) * time.Hour).Format(time.RFC3339)
		w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":500}`, at))
		if w.Code != http.StatusOK {
			t.Fatalf("trace hour %d: status %d: %s", h, w.Code, w.Body.String())
		}
		resp := decode[TraceResponse](t, w)
		if resp.Solved {
			solved = true
			if resp.PlanVersion <= version {
				t.Errorf("solve did not advance plan version: %d -> %d", version, resp.PlanVersion)
			}
		}
	}
	if !solved {
		t.Fatal("72 hours of heavy traffic never funded a re-solve")
	}
	if srv.Solves() < 2 {
		t.Errorf("server solves = %d, want initial + streamed", srv.Solves())
	}
}

func TestForceSolveSpendsTokens(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"t1","workload":"image-processing","initial_tokens":1.0}`)
	w := do(t, srv, "POST", "/v1/workflows/t1/solve", "")
	if w.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[SolveResponse](t, w)
	if resp.PlanVersion < 2 {
		t.Errorf("plan version = %d after forced solve", resp.PlanVersion)
	}
	if resp.Granularity != "hourly" && resp.Granularity != "daily" {
		t.Errorf("granularity = %q", resp.Granularity)
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv := newTestServer(t, 3)
	register(t, srv, `{"workload":"image-processing"}`)
	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	do(t, srv, "POST", "/v1/workflows/wf-1/trace", fmt.Sprintf(`{"at":%q,"invocations":5}`, at))
	do(t, srv, "GET", "/v1/workflows/wf-1/plan", "")

	w := do(t, srv, "GET", "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	stats := decode[StatsResponse](t, w)
	if stats.Tenants != 1 || stats.Shards != 3 || stats.Registered != 1 || stats.Deltas != 1 || stats.PlanQueries != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if len(stats.QueueDepths) != 3 {
		t.Errorf("queue depths = %v", stats.QueueDepths)
	}

	if w := do(t, srv, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz: status %d", w.Code)
	}
}

func TestSimClock(t *testing.T) {
	clk := NewSimClock(DefaultStart)
	if !clk.Now().Equal(DefaultStart) {
		t.Fatal("clock not frozen at start")
	}
	clk.Advance(time.Hour)
	if !clk.Now().Equal(DefaultStart.Add(time.Hour)) {
		t.Error("advance failed")
	}
	clk.Set(DefaultStart)
	if !clk.Now().Equal(DefaultStart) {
		t.Error("set failed")
	}
	var fn Clock = ClockFunc(func() time.Time { return DefaultStart })
	if !fn.Now().Equal(DefaultStart) {
		t.Error("ClockFunc adapter broken")
	}
}
