package cashd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatial/api"
	"spatial/internal/serve"
)

const (
	srcLoop = `
int f(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) s += i;
  return s;
}`
	srcAdd = `int f(int a, int b) { return a + b; }`
	// srcSlow runs long enough to hold a worker while a test builds up
	// queue pressure, but dies promptly under a millisecond deadline.
	srcSlow = `
int f(void) {
  int i; int s = 0;
  for (i = 0; i < 100000000; i++) s += i;
  return s;
}`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %T from status %d: %v", v, resp.StatusCode, err)
	}
	return v
}

// TestDifferentialRun is the wire-fidelity gate: a run served over HTTP
// must be bit-identical to the same request submitted to a serve.Engine
// directly — value, every stats counter, and the cache-hit flag.
func TestDifferentialRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 2, CacheEntries: 8}})

	// Direct reference from a separate engine with the same config.
	ref, err := serve.New(serve.Config{Workers: 2, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	cases := []api.RunRequest{
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull}, Entry: "f", Args: []int64{10}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelNone}, Entry: "f", Args: []int64{10}},
		{Program: api.Program{Source: srcAdd, Level: api.LevelMedium}, Entry: "f", Args: []int64{3, 4}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Backend: api.BackendCompiled}, Entry: "f", Args: []int64{10}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Partitions: 3}, Entry: "f", Args: []int64{10}},
	}
	for i, rr := range cases {
		want, err := ref.Do(context.Background(), serve.Request{Program: rr.Program, Entry: rr.Entry, Args: rr.Args})
		if err != nil {
			t.Fatalf("case %d: direct: %v", i, err)
		}
		resp := post(t, ts.URL+"/v1/run", rr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: status %d", i, resp.StatusCode)
		}
		got := decodeBody[api.RunResponse](t, resp)
		if got.Value != want.Value {
			t.Errorf("case %d: value %d over HTTP, %d direct", i, got.Value, want.Value)
		}
		wantStats := toWireStats(want.Stats)
		if got.Stats != wantStats {
			t.Errorf("case %d: stats diverged:\n http  %+v\n direct %+v", i, got.Stats, wantStats)
		}
		if got.CacheHit != want.CacheHit {
			t.Errorf("case %d: cache hit %v over HTTP, %v direct", i, got.CacheHit, want.CacheHit)
		}
	}

	// Second submission of case 0 must now hit the daemon's cache.
	resp := post(t, ts.URL+"/v1/run", cases[0])
	if got := decodeBody[api.RunResponse](t, resp); !got.CacheHit {
		t.Error("repeat request missed the cache over HTTP")
	}
	if hits := s.Engine().Stats().CacheHits; hits == 0 {
		t.Error("engine recorded no cache hits")
	}
}

// TestDeprecatedPartitions: the deprecated "partitions" wire field is
// accepted and ignored. A request with partitions 3 answers bit-identically
// to partitions 0 from the same cache entry. (TestStatusMapping checks
// that an out-of-range count is still a typed compile error.)
func TestDeprecatedPartitions(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})
	seq := api.RunRequest{Program: api.Program{Source: srcLoop, Level: api.LevelFull}, Entry: "f", Args: []int64{10}}
	part := seq
	part.Partitions = 3

	rs := decodeBody[api.RunResponse](t, post(t, ts.URL+"/v1/run", seq))
	rp := decodeBody[api.RunResponse](t, post(t, ts.URL+"/v1/run", part))
	if rs.CacheHit || !rp.CacheHit {
		t.Errorf("cache hits: partitions=0 %v, partitions=3 %v; want a miss then a hit on the same entry", rs.CacheHit, rp.CacheHit)
	}
	if rs.Value != rp.Value || rs.Stats != rp.Stats {
		t.Errorf("partitions=3 diverged:\n partitions=0 value=%d stats=%+v\n partitions=3 value=%d stats=%+v",
			rs.Value, rs.Stats, rp.Value, rp.Stats)
	}
}

// TestDifferentialBatch: /v1/batch preserves request order and matches
// DoBatch item by item.
func TestDifferentialBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 2, QueueDepth: 2, CacheEntries: 8}})
	ref, err := serve.New(serve.Config{Workers: 2, QueueDepth: 2, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var wire api.BatchRequest
	var direct []serve.Request
	for i := 0; i < 9; i++ {
		rr := api.RunRequest{
			Program: api.Program{Source: srcAdd, Level: api.LevelFull},
			Entry:   "f", Args: []int64{int64(i), 100},
		}
		wire.Runs = append(wire.Runs, rr)
		direct = append(direct, serve.Request{Program: rr.Program, Entry: rr.Entry, Args: rr.Args})
	}
	// One failing item mid-batch: errors must stay positional.
	bad := api.RunRequest{Program: api.Program{Source: "int f( {", Level: api.LevelNone}, Entry: "f"}
	wire.Runs = append(wire.Runs[:4], append([]api.RunRequest{bad}, wire.Runs[4:]...)...)
	direct = append(direct[:4], append([]serve.Request{{Program: bad.Program, Entry: "f"}}, direct[4:]...)...)

	want := ref.DoBatch(context.Background(), direct)
	resp := post(t, ts.URL+"/v1/batch", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[api.BatchResponse](t, resp)
	if len(got.Results) != len(want) {
		t.Fatalf("%d results over HTTP, %d direct", len(got.Results), len(want))
	}
	for i := range want {
		switch {
		case want[i].Err != nil:
			if got.Results[i].Err == nil {
				t.Errorf("item %d: HTTP succeeded where direct failed (%v)", i, want[i].Err)
				continue
			}
			if got.Results[i].Err.Class != api.ClassCompile {
				t.Errorf("item %d: error class %q, want compile", i, got.Results[i].Err.Class)
			}
		default:
			r := got.Results[i].Run
			if r == nil {
				t.Errorf("item %d: HTTP failed where direct succeeded", i)
				continue
			}
			if r.Value != want[i].Resp.Value || r.Stats != toWireStats(want[i].Resp.Stats) {
				t.Errorf("item %d diverged from direct submission", i)
			}
		}
	}
}

// TestStatusMapping is the table-driven wire-error gate: each failure
// mode maps to its fixed status with a typed api.Error body whose Status
// field echoes the HTTP status.
func TestStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		class  api.Class
	}{
		{"malformed json", "POST", "/v1/run", "{not json", http.StatusBadRequest, api.ClassBadRequest},
		{"unknown field", "POST", "/v1/run", `{"source":"int f(void){return 1;}","entry":"f","bogus":1}`, http.StatusBadRequest, api.ClassBadRequest},
		{"trailing garbage", "POST", "/v1/run", `{"source":"int f(void){return 1;}"} trailing`, http.StatusBadRequest, api.ClassBadRequest},
		{"empty source", "POST", "/v1/run", `{"source":""}`, http.StatusBadRequest, api.ClassBadRequest},
		{"compile error", "POST", "/v1/run", `{"source":"int f( {","entry":"f"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"bad level", "POST", "/v1/run", `{"source":"int f(void){return 1;}","level":99,"entry":"f"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"bad partitions", "POST", "/v1/run", `{"source":"int f(void){return 1;}","partitions":-1,"entry":"f"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"deadline", "POST", "/v1/run", fmt.Sprintf(`{"source":%q,"entry":"f","timeout_ms":1}`, srcSlow), http.StatusGatewayTimeout, api.ClassDeadline},
		{"compile endpoint error", "POST", "/v1/compile", `{"source":"int f( {"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"empty batch", "POST", "/v1/batch", `{"runs":[]}`, http.StatusBadRequest, api.ClassBadRequest},
		{"trace in batch", "POST", "/v1/batch", `{"runs":[{"source":"int f(void){return 1;}","entry":"f","trace":true}]}`, http.StatusBadRequest, api.ClassBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			e := decodeBody[api.Error](t, resp)
			if e.Class != tc.class {
				t.Errorf("class %q, want %q", e.Class, tc.class)
			}
			if e.Status != tc.status {
				t.Errorf("body status %d, want %d (must echo the HTTP status)", e.Status, tc.status)
			}
			if e.Message == "" {
				t.Error("empty error message")
			}
		})
	}

	// GET /v1/trace/{id} for an unknown id → 404 not_found.
	resp, err := http.Get(ts.URL + "/v1/trace/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
	}
	if e := decodeBody[api.Error](t, resp); e.Class != api.ClassNotFound {
		t.Errorf("unknown trace: class %q, want not_found", e.Class)
	}
}

// TestOverloadSheds fills the single worker and the one-slot queue with
// slow runs, then verifies the next request over HTTP is shed with 429,
// a Retry-After header, and a temporary typed error.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, QueueDepth: 1, CacheEntries: 4}})

	slow := api.RunRequest{
		Program:   api.Program{Source: srcSlow, Level: api.LevelNone},
		Entry:     "f",
		TimeoutMS: 2000,
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, ts.URL+"/v1/run", slow)
			resp.Body.Close()
		}()
	}
	defer wg.Wait()
	// Wait until one slow run occupies the worker and the other occupies
	// the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Engine().Stats().QueueLen < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts.URL+"/v1/run", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	e := decodeBody[api.Error](t, resp)
	if e.Class != api.ClassOverload {
		t.Errorf("class %q, want overload", e.Class)
	}
	if !e.Temporary() {
		t.Error("overload error not marked temporary")
	}
	if e.RetryAfterMS <= 0 {
		t.Error("overload error without a retry hint")
	}
}

// TestTraceDownload runs with trace recording and downloads the Chrome
// trace: valid JSON with a traceEvents array.
func TestTraceDownload(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	rr := api.RunRequest{
		Program: api.Program{Source: srcLoop, Level: api.LevelFull},
		Entry:   "f", Args: []int64{10}, Trace: true,
	}
	resp := post(t, ts.URL+"/v1/run", rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced run: status %d", resp.StatusCode)
	}
	run := decodeBody[api.RunResponse](t, resp)
	if run.Value != 45 {
		t.Fatalf("traced f(10) = %d, want 45", run.Value)
	}
	if run.TraceID == "" {
		t.Fatal("traced run returned no trace_id")
	}

	dl, err := http.Get(ts.URL + "/v1/trace/" + run.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("trace download: status %d", dl.StatusCode)
	}
	if cd := dl.Header.Get("Content-Disposition"); !strings.Contains(cd, run.TraceID) {
		t.Errorf("Content-Disposition %q does not name the trace", cd)
	}
	// Chrome's trace viewer accepts the bare event-array form.
	var events []json.RawMessage
	if err := json.NewDecoder(dl.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	dl.Body.Close()
	if len(events) == 0 {
		t.Error("trace has no events")
	}
}

// TestTraceStoreBound: the oldest trace is dropped once the bound hits.
func TestTraceStoreBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}, MaxTraces: 2})

	ids := make([]string, 3)
	for i := range ids {
		rr := api.RunRequest{
			Program: api.Program{Source: srcAdd, Level: api.LevelFull},
			Entry:   "f", Args: []int64{int64(i), 1}, Trace: true,
		}
		resp := post(t, ts.URL+"/v1/run", rr)
		ids[i] = decodeBody[api.RunResponse](t, resp).TraceID
	}
	if resp, _ := http.Get(ts.URL + "/v1/trace/" + ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest trace still resident: status %d, want 404", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp, _ := http.Get(ts.URL + "/v1/trace/" + id); resp.StatusCode != http.StatusOK {
			t.Errorf("recent trace %s: status %d, want 200", id, resp.StatusCode)
		}
	}
}

// TestMetrics exercises the exposition after live traffic: engine
// counters, the hit-rate gauge, and both latency histograms must appear
// with self-consistent values.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	rr := api.RunRequest{Program: api.Program{Source: srcLoop, Level: api.LevelFull}, Entry: "f", Args: []int64{10}}
	for i := 0; i < 3; i++ {
		resp := post(t, ts.URL+"/v1/run", rr)
		resp.Body.Close()
	}
	post(t, ts.URL+"/v1/run", api.RunRequest{Program: api.Program{Source: "int f( {"}, Entry: "f"}).Body.Close()
	post(t, ts.URL+"/v1/compile", api.CompileRequest{Source: srcAdd, Level: api.LevelFull}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	for _, want := range []string{
		`cashd_requests_total{endpoint="compile",status="200"} 1`,
		`cashd_requests_total{endpoint="run",status="200"} 3`,
		`cashd_requests_total{endpoint="run",status="422"} 1`,
		"cashd_runs_completed_total 3",
		"cashd_runs_failed_total 1",
		"cashd_cache_hits_total 2",
		"cashd_cache_misses_total 3",
		"cashd_run_duration_seconds_count 3",
		"cashd_run_duration_seconds_bucket",
		"cashd_compile_duration_seconds_count 1",
		"cashd_run_duration_seconds_p50",
		"cashd_run_duration_seconds_p99",
		"cashd_shed_rate 0",
		"cashd_queue_capacity 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n----\n%s", want, text)
		}
	}
}

// TestShardRedirect: with a two-peer ring, a daemon answers requests it
// does not own with 307 + Location at the owner, and serves the ones it
// does own.
func TestShardRedirect(t *testing.T) {
	const (
		peerA = "http://shard-a.example:8080"
		peerB = "http://shard-b.example:8080"
	)
	ring := api.NewRing([]string{peerA, peerB}, 0)

	// Find one program owned by each peer; vary the source until both
	// sides of the ring are covered.
	byOwner := map[string]api.Program{}
	for i := 0; len(byOwner) < 2 && i < 64; i++ {
		p := api.Program{
			Source: fmt.Sprintf("int f(void) { return %d; }", i),
			Level:  api.LevelFull,
		}
		byOwner[ring.Owner(p.Key())] = p
	}
	if len(byOwner) < 2 {
		t.Fatal("could not find programs for both shards")
	}

	s, ts := newTestServer(t, Config{
		Engine: serve.Config{Workers: 1, CacheEntries: 4},
		Self:   peerA,
		Peers:  []string{peerA, peerB},
	})
	_ = s

	noFollow := &http.Client{
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	do := func(p api.Program, path string, body any) *http.Response {
		data, _ := json.Marshal(body)
		resp, err := noFollow.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	owned := byOwner[peerA]
	foreign := byOwner[peerB]

	resp := do(owned, "/v1/run", api.RunRequest{Program: owned, Entry: "f"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned program: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp = do(foreign, "/v1/run", api.RunRequest{Program: foreign, Entry: "f"})
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("foreign program: status %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, peerB) || !strings.HasSuffix(loc, "/v1/run") {
		t.Errorf("Location %q, want %s/v1/run", loc, peerB)
	}
	resp.Body.Close()

	// Compile redirects the same way; batch is served regardless of
	// ownership (clients partition batches).
	resp = do(foreign, "/v1/compile", foreign)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Errorf("foreign compile: status %d, want 307", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do(foreign, "/v1/batch", api.BatchRequest{Runs: []api.RunRequest{{Program: foreign, Entry: "f"}}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch with foreign program: status %d, want 200 (no batch redirects)", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestShardConfigValidation: peers without self, or self outside the
// peer set, must fail construction.
func TestShardConfigValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Error("New accepted peers without self")
	}
	if _, err := New(Config{Self: "http://c", Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Error("New accepted a self outside the peer set")
	}
}

// TestHealthz: liveness is a plain 200.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
}
