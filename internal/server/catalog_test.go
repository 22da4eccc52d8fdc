package server

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// The catalogue bodies as served when each request rebuilt and re-encoded
// them. They are encoded once per process now; whichever Server answers,
// and however often, the bytes are these.
var catalogPins = []struct {
	path   string
	size   int
	sha256 string
}{
	{"/v1/designs", 15433, "c3e862b573d2c456ae6b609901bdb2225813f1d53936d9dea92fcab5372b8d8d"},
	{"/v1/designs?max=79", 15433, "c3e862b573d2c456ae6b609901bdb2225813f1d53936d9dea92fcab5372b8d8d"},
	{"/v1/designs?max=10", 1968, "0957f7bc87624648f230eae0eede3c41785075bdd4601501a7251eaa9ae2f9b3"},
	{"/v1/workloads", 1881, "1fb8cd19a7e46d435b12d6dc9caf0ed125facd4d9fd1e6b1714e3184cdb5f261"},
}

func checkCatalogPins(t *testing.T, base string) {
	t.Helper()
	for _, pin := range catalogPins {
		body := getBody(t, base+pin.path)
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); len(body) != pin.size || got != pin.sha256 {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", pin.path, len(body), got, pin.size, pin.sha256)
		}
	}
}

func TestCatalogBodiesPinned(t *testing.T) {
	_, first := newTestServer(t)
	_, second := newTestServer(t)
	for _, ts := range []*httptest.Server{first, second} {
		checkCatalogPins(t, ts.URL)
		checkCatalogPins(t, ts.URL)
	}
}

// The workloads body cannot go stale: running a tiled kernel outside the
// registry resolves it through workload.ParseTiled without registering it.
func TestWorkloadsBodyIgnoresSynthesizedKernels(t *testing.T) {
	_, ts := newTestServer(t)
	before := getBody(t, ts.URL+"/v1/workloads")
	if strings.Contains(string(before), "gemm-os-8x8x8") {
		t.Fatal("gemm-os-8x8x8 is registered; pick an unregistered tiled kernel")
	}
	resp := post(t, ts.URL+"/v1/runs", `{"workload":"gemm-os-8x8x8","scale":"tiny"}`)
	run := decode[runResponse](t, resp)
	if resp.StatusCode != http.StatusOK || run.Result.App != "gemm-os-8x8x8" || run.Result.Err != "" {
		t.Fatalf("running gemm-os-8x8x8: status %d, %+v", resp.StatusCode, run)
	}
	if after := getBody(t, ts.URL+"/v1/workloads"); string(after) != string(before) {
		t.Error("/v1/workloads changed after a run of an unregistered tiled kernel")
	}
}

const hitBody = `{"workload":"lu","scale":"tiny","threads":1,"config":{"clusters":1,"virt":64,"l1_kb":8,"l2_mb":1}}`

// serveOnce drives one request through the whole handler stack (mux,
// instrumentation, handler) without a socket and returns the 200 body.
func serveOnce(tb testing.TB, srv *Server, method, path, body string) []byte {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// warmHit returns a server whose cache holds hitBody's cell.
func warmHit(tb testing.TB) *Server {
	srv, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	serveOnce(tb, srv, "POST", "/v1/runs", hitBody)
	return srv
}

// What the read path costs, in allocations, which repeat exactly. With
// CellKey through fmt a cached /v1/runs read 50 in this harness, and 41
// with the reflection-free key (request and recorder, JSON decode, key,
// response encode). Answered from the memo it reads 25: request and
// recorder, the body read, one map lookup, the stored bytes. A
// /v1/designs that enumerated, pruned, sorted and encoded per request
// read 30 235 (24 now, none of them per design point).
const (
	serveHitAllocBudget = 28
	designsAllocBudget  = 40
)

func TestServeAllocBudgets(t *testing.T) {
	srv := warmHit(t)
	hit := testing.AllocsPerRun(200, func() { serveOnce(t, srv, "POST", "/v1/runs", hitBody) })
	if hit > serveHitAllocBudget {
		t.Errorf("a cached POST /v1/runs allocates %.0f objects, budget %d", hit, serveHitAllocBudget)
	}
	designs := testing.AllocsPerRun(200, func() { serveOnce(t, srv, "GET", "/v1/designs", "") })
	if designs > designsAllocBudget {
		t.Errorf("GET /v1/designs allocates %.0f objects, budget %d", designs, designsAllocBudget)
	}
	t.Logf("cached POST /v1/runs: %.0f allocations; GET /v1/designs: %.0f", hit, designs)
}

// BenchmarkServeHit is the micro twin of serve_hot's dominant request: a
// cached POST /v1/runs through Server.ServeHTTP, no socket.
func BenchmarkServeHit(b *testing.B) {
	srv := warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, srv, "POST", "/v1/runs", hitBody)
	}
}
