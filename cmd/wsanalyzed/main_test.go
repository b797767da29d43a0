package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

// newTestService spins up the full HTTP stack around a server — the
// black-box entry point every test below talks to.
func newTestService(t *testing.T, s *server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, data)
		}
	}
	return resp
}

// submit posts an analyze request and returns the accepted job id.
func submit(t *testing.T, ts *httptest.Server, req analyzeRequest) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/analyze", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" {
		t.Fatalf("submit: empty job id in %s", body)
	}
	return acc.ID
}

// poll waits for the job to leave queued/running and returns its final
// state.
func poll(t *testing.T, ts *httptest.Server, id string) job {
	t.Helper()
	deadline := 600 // × 100ms = 60s
	for i := 0; i < deadline; i++ {
		var j job
		resp := getJSON(t, ts.URL+"/jobs/"+id, &j)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, resp.StatusCode)
		}
		if j.Status == "done" || j.Status == "failed" {
			return j
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return job{}
}

// TestRoundTripMatchesHarness is the service's core acceptance: a full
// submit→poll→result round trip through HTTP must return bytes
// identical to calling the harness directly with the same
// configuration.
func TestRoundTripMatchesHarness(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 2))
	req := analyzeRequest{Kind: "all", Scale: 0.05}
	id := submit(t, ts, req)
	j := poll(t, ts, id)
	if j.Status != "done" {
		t.Fatalf("job failed: %s", j.Error)
	}

	direct := harness.NewSuite(harness.Config{Scale: 0.05})
	var want bytes.Buffer
	if err := harness.RunAll(direct, &want, false); err != nil {
		t.Fatal(err)
	}
	if j.Result != want.String() {
		t.Errorf("service result differs from direct harness run (%d vs %d bytes)",
			len(j.Result), want.Len())
	}
}

// TestStaticMode covers the profile-free experiment end to end through
// the service, submitted via the ?mode=static query alias, and checks
// the result against a direct harness run.
func TestStaticMode(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 2))

	resp, body := postJSON(t, ts.URL+"/analyze?mode=static", analyzeRequest{Scale: 0.05})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	j := poll(t, ts, acc.ID)
	if j.Status != "done" {
		t.Fatalf("job failed: %s", j.Error)
	}
	if j.Req.Kind != "static" {
		t.Errorf("recorded kind = %q, want static (the ?mode alias must stick)", j.Req.Kind)
	}

	direct := harness.NewSuite(harness.Config{Scale: 0.05})
	var want bytes.Buffer
	if err := harness.RunStatic(direct, &want, false); err != nil {
		t.Fatal(err)
	}
	if j.Result != want.String() {
		t.Errorf("service result differs from direct harness run (%d vs %d bytes)",
			len(j.Result), want.Len())
	}

	// A body kind conflicting with the query alias is rejected; so is an
	// unknown mode.
	if resp, _ := postJSON(t, ts.URL+"/analyze?mode=static", analyzeRequest{Kind: "all"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("conflicting kind/mode: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/analyze?mode=bogus", analyzeRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode: status %d, want 400", resp.StatusCode)
	}
}

// TestZooMode covers the predictor-zoo experiment end to end through
// the service, submitted via the ?mode=zoo and ?predictor= query
// aliases, and checks the result against a direct harness run.
func TestZooMode(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 2))

	resp, body := postJSON(t, ts.URL+"/analyze?mode=zoo&predictor=gshare,perceptron", analyzeRequest{Scale: 0.05})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	j := poll(t, ts, acc.ID)
	if j.Status != "done" {
		t.Fatalf("job failed: %s", j.Error)
	}
	if j.Req.Kind != "zoo" || j.Req.Predictor != "gshare,perceptron" {
		t.Errorf("recorded request = kind %q predictor %q (the query aliases must stick)", j.Req.Kind, j.Req.Predictor)
	}

	direct := harness.NewSuite(harness.Config{Scale: 0.05})
	var want bytes.Buffer
	if err := harness.RunZoo(direct, &want, false, "gshare", "perceptron"); err != nil {
		t.Fatal(err)
	}
	if j.Result != want.String() {
		t.Errorf("service result differs from direct harness run (%d vs %d bytes)",
			len(j.Result), want.Len())
	}
	if !strings.Contains(j.Result, "[perceptron]") {
		t.Errorf("zoo result missing requested predictor section:\n%.500s", j.Result)
	}

	// Unknown predictors are rejected at validation, before any work, as
	// is a predictor selection on a non-zoo kind.
	if resp, _ := postJSON(t, ts.URL+"/analyze?mode=zoo&predictor=bogus", analyzeRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown predictor: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/analyze", analyzeRequest{Kind: "all", Predictor: "tage"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predictor on non-zoo kind: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/analyze?predictor=tage", analyzeRequest{Kind: "zoo", Predictor: "pag"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("conflicting predictor/query: status %d, want 400", resp.StatusCode)
	}
}

// TestGraphCharactMode covers the graph-workload and characterization
// experiments end to end through the service, submitted via the ?mode=
// alias, and checks each result against a direct harness run.
func TestGraphCharactMode(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 2))

	resp, body := postJSON(t, ts.URL+"/analyze?mode=graphs&predictor=pag", analyzeRequest{Scale: 0.05})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit graphs: status %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	j := poll(t, ts, acc.ID)
	if j.Status != "done" {
		t.Fatalf("graphs job failed: %s", j.Error)
	}

	direct := harness.NewSuite(harness.Config{Scale: 0.05})
	var want bytes.Buffer
	if err := harness.RunGraphs(direct, &want, false, "pag"); err != nil {
		t.Fatal(err)
	}
	if j.Result != want.String() {
		t.Errorf("graphs result differs from direct harness run (%d vs %d bytes)",
			len(j.Result), want.Len())
	}
	if !strings.Contains(j.Result, "bfs-uniform") {
		t.Errorf("graphs result missing benchmark rows:\n%.500s", j.Result)
	}

	charID := submit(t, ts, analyzeRequest{Kind: "charact", Scale: 0.05})
	cj := poll(t, ts, charID)
	if cj.Status != "done" {
		t.Fatalf("charact job failed: %s", cj.Error)
	}
	want.Reset()
	if err := harness.RunCharact(harness.NewSuite(harness.Config{Scale: 0.05}), &want, false); err != nil {
		t.Fatal(err)
	}
	if cj.Result != want.String() {
		t.Errorf("charact result differs from direct harness run (%d vs %d bytes)",
			len(cj.Result), want.Len())
	}

	// A predictor selection on kind "charact" is rejected at validation.
	if resp, _ := postJSON(t, ts.URL+"/analyze", analyzeRequest{Kind: "charact", Predictor: "tage"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predictor on charact kind: status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentSubmissions floods the service with more jobs than its
// concurrency bound and checks every one completes correctly — CI runs
// this under -race, so the job table and counter synchronization are
// verified at the same time.
func TestConcurrentSubmissions(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newServer(reg, 2)
	ts := newTestService(t, srv)

	const jobs = 6
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submit(t, ts, analyzeRequest{Kind: "table", Table: 1, Scale: 0.02})
		}()
	}
	wg.Wait()

	var first string
	for i, id := range ids {
		j := poll(t, ts, id)
		if j.Status != "done" {
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
		if i == 0 {
			first = j.Result
		} else if j.Result != first {
			t.Errorf("job %s result differs from job %s", id, ids[0])
		}
	}
	if got := reg.Counter("wsd_jobs_submitted_total").Value(); got != jobs {
		t.Errorf("submitted counter = %d, want %d", got, jobs)
	}
	if got := reg.Counter("wsd_jobs_completed_total").Value(); got != jobs {
		t.Errorf("completed counter = %d, want %d", got, jobs)
	}
	if got := reg.Gauge("wsd_jobs_running").Value(); got != 0 {
		t.Errorf("running gauge = %d after quiescence, want 0", got)
	}
	if got := reg.Gauge("wsd_jobs_queued").Value(); got != 0 {
		t.Errorf("queued gauge = %d after quiescence, want 0", got)
	}
}

// TestGracefulShutdown drives the drain protocol: with a job held
// in-flight by the test seam, beginDrain must reject new submissions
// with 503 while letting the in-flight job run to completion.
func TestGracefulShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newServer(reg, 1)
	started := make(chan string, 1)
	release := make(chan struct{})
	srv.startHook = func(id string) {
		started <- id
		<-release
	}
	ts := newTestService(t, srv)

	id := submit(t, ts, analyzeRequest{Kind: "table", Table: 1, Scale: 0.02})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}

	srv.beginDrain()

	var health struct {
		Draining bool `json:"draining"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if !health.Draining {
		t.Error("healthz does not report draining")
	}

	resp, body := postJSON(t, ts.URL+"/analyze", analyzeRequest{Kind: "table", Table: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if got := reg.Counter("wsd_jobs_rejected_total").Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release)
	srv.waitIdle()
	j := poll(t, ts, id)
	if j.Status != "done" {
		t.Errorf("in-flight job did not complete across drain: %s (%s)", j.Status, j.Error)
	}
}

// TestMetricsEndpointGolden locks down the Prometheus exposition after
// one deterministic job: frozen clock and zero memory source null the
// timing series, everything else is an exact property of the fixture
// workload.
func TestMetricsEndpointGolden(t *testing.T) {
	reg := obs.NewRegistry(
		obs.WithClock(obs.NewFakeClock(time.Unix(0, 0), 0)),
		obs.WithMemSource(func() uint64 { return 0 }),
	)
	srv := newServer(reg, 1)
	ts := newTestService(t, srv)

	id := submit(t, ts, analyzeRequest{Kind: "table", Table: 1, Scale: 0.02, Workers: 1})
	if j := poll(t, ts, id); j.Status != "done" {
		t.Fatalf("job failed: %s", j.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	checkGolden(t, "metrics.prom.golden", string(body))

	// The alternate encodings must serve and agree on a spot value.
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	getJSON(t, ts.URL+"/metrics?format=json", &doc)
	want := fmt.Sprintf("wsd_jobs_completed_total %d", doc.Counters["wsd_jobs_completed_total"])
	if !strings.Contains(string(body), want) {
		t.Errorf("prom and json encodings disagree on %q", want)
	}
	if resp := getJSON(t, ts.URL+"/metrics?format=text", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("text format: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/metrics?format=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format: status %d, want 400", resp.StatusCode)
	}
}

// TestValidation covers the request-rejection paths.
func TestValidation(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 1))

	cases := []analyzeRequest{
		{Kind: "bogus"},
		{Kind: "table", Table: 9},
		{Kind: "figure", Figure: 1},
		{Kind: "table", Table: 1, Scale: -0.5},
		{Kind: "table", Table: 1, Workers: -1},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/analyze", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400 (body %s)", c, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%+v: 400 body %s is not a structured error", c, body)
		}
	}

	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	if resp := getJSON(t, ts.URL+"/jobs/job-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// A legacy body may still carry the removed "shards" knob: unknown
	// fields are ignored, so it is accepted and renders the same result
	// as the body without it.
	var results []string
	for _, body := range []map[string]any{
		{"kind": "table", "table": 1, "scale": 0.02, "workers": 1, "shards": 2},
		{"kind": "table", "table": 1, "scale": 0.02, "workers": 1},
	} {
		resp, raw := postJSON(t, ts.URL+"/analyze", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%v: status %d, want 202 (body %s)", body, resp.StatusCode, raw)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &acc); err != nil {
			t.Fatal(err)
		}
		j := poll(t, ts, acc.ID)
		if j.Status != "done" {
			t.Fatalf("%v: job failed: %s", body, j.Error)
		}
		results = append(results, j.Result)
	}
	if results[0] != results[1] {
		t.Errorf("legacy shards field changed the result:\n--- with ---\n%s\n--- without ---\n%s", results[0], results[1])
	}
}

// TestOversizedBodyRejected submits a body past the 1 MiB limit: it
// gets a structured 413 and no job is created.
func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 1))
	req := analyzeRequest{Kind: "progcheck", Program: strings.Repeat("; padding\n", maxRequestBytes/10+1)}
	resp, body := postJSON(t, ts.URL+"/analyze", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %.200s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "exceeds") {
		t.Errorf("413 body %.200s is not a structured error", body)
	}
	if resp := getJSON(t, ts.URL+"/jobs/job-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oversized request created a job: status %d", resp.StatusCode)
	}
}

// TestProgcheckKind covers the program-verification endpoint: a clean
// program is verified as a job and returns the report; a corrupt one is
// rejected at submit time with a structured 400 whose body carries the
// findings, and never reaches the job queue.
func TestProgcheckKind(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 1))

	const clean = `.name demo
	addi r1, zero, 8
L0:	addi r1, r1, -1
	bne r1, zero, L0
	halt
`
	id := submit(t, ts, analyzeRequest{Kind: "progcheck", Program: clean})
	j := poll(t, ts, id)
	if j.Status != "done" {
		t.Fatalf("progcheck job failed: %s", j.Error)
	}
	if !strings.Contains(j.Result, "branch sites") {
		t.Errorf("progcheck result missing summary line:\n%s", j.Result)
	}

	// A provably out-of-bounds store fails verification before enqueue:
	// the 400 body is structured {error, findings} with the error
	// finding present, and no job is created for it.
	const oob = `.name bad
	addi r1, zero, 1
	lui r2, 1
	st r1, 0(r2)
	halt
`
	resp, body := postJSON(t, ts.URL+"/analyze", analyzeRequest{Kind: "progcheck", Program: oob})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt program: status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var reject errorBody
	if err := json.Unmarshal(body, &reject); err != nil {
		t.Fatalf("decoding rejection: %v\nbody: %s", err, body)
	}
	if !strings.Contains(reject.Error, "rejected") {
		t.Errorf("rejection error = %q, want a rejection message", reject.Error)
	}
	errors := 0
	for _, f := range reject.Findings {
		if f.Severity == "error" {
			errors++
		}
	}
	if errors == 0 {
		t.Errorf("rejection body carries no error findings: %s", body)
	}

	var list struct {
		Jobs []struct {
			Kind string `json:"kind"`
		} `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 1 {
		t.Errorf("rejected program reached the job queue: %+v", list.Jobs)
	}

	// Unparseable source, a missing program, and a program on a
	// non-progcheck kind are all structured 400s.
	for name, req := range map[string]analyzeRequest{
		"parse error":            {Kind: "progcheck", Program: "bogus instruction"},
		"missing program":        {Kind: "progcheck"},
		"program on wrong kind":  {Kind: "all", Program: clean},
		"predictor on progcheck": {Kind: "progcheck", Program: clean, Predictor: "pag"},
	} {
		resp, body := postJSON(t, ts.URL+"/analyze", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: 400 body not structured {error}: %s", name, body)
		}
	}
}

// TestProgCheckConfig covers the harness verification gate through the
// service: a job with progcheck on must return bytes identical to a
// direct harness run under the same config — the gate verifies every
// compiled program without perturbing the rendered experiment.
func TestProgCheckConfig(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 1))
	id := submit(t, ts, analyzeRequest{Kind: "table", Table: 1, Scale: 0.02, ProgCheck: true})
	j := poll(t, ts, id)
	if j.Status != "done" {
		t.Fatalf("job failed: %s", j.Error)
	}

	direct := harness.NewSuite(harness.Config{Scale: 0.02, ProgCheck: true})
	var want bytes.Buffer
	if err := harness.RunTable(direct, &want, 1, false); err != nil {
		t.Fatal(err)
	}
	if j.Result != want.String() {
		t.Errorf("service result differs from direct harness run (%d vs %d bytes)",
			len(j.Result), want.Len())
	}
}

// TestJobsListing checks /jobs reports submission order and statuses.
func TestJobsListing(t *testing.T) {
	ts := newTestService(t, newServer(obs.NewRegistry(), 1))
	a := submit(t, ts, analyzeRequest{Kind: "table", Table: 1, Scale: 0.02})
	b := submit(t, ts, analyzeRequest{Kind: "table", Table: 2, Scale: 0.02})
	poll(t, ts, a)
	poll(t, ts, b)

	var list struct {
		Jobs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
			Kind   string `json:"kind"`
		} `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(list.Jobs))
	}
	if list.Jobs[0].ID != a || list.Jobs[1].ID != b {
		t.Errorf("jobs not in submission order: %+v", list.Jobs)
	}
	for _, j := range list.Jobs {
		if j.Status != "done" {
			t.Errorf("job %s status %q, want done", j.ID, j.Status)
		}
	}
}
