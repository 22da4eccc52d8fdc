package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeCoordinator records every /v1/cluster/journal payload and acks the
// line count, standing in for the real merge endpoint.
func fakeCoordinator(t *testing.T, payloads *[]string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/journal" {
			t.Errorf("unexpected path %s", r.URL.Path)
			http.NotFound(w, r)
			return
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		*payloads = append(*payloads, string(b))
		received := strings.Count(string(b), "\n")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"received":` + itoa(received) + `,"merged":` + itoa(received) + `}`))
	}))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

// TestShipperDeltas: the shipper ships complete lines only, advances its
// offset so nothing re-ships, picks up appended deltas, and holds back a
// torn trailing record until its newline lands.
func TestShipperDeltas(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "worker.jsonl")
	var payloads []string
	coord := fakeCoordinator(t, &payloads)
	defer coord.Close()

	sh := &Shipper{Coordinator: coord.URL, JournalPath: journal}
	ctx := context.Background()

	// Missing journal: a fresh worker has nothing to ship, not an error.
	if n, err := sh.ShipOnce(ctx); n != 0 || err != nil {
		t.Fatalf("missing journal: got %d, %v", n, err)
	}

	// Two complete records and one torn one: only the complete ones ship.
	if err := os.WriteFile(journal, []byte("{\"a\":1}\n{\"a\":2}\n{\"a\":3}"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := sh.ShipOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(payloads) != 1 || payloads[0] != "{\"a\":1}\n{\"a\":2}\n" {
		t.Fatalf("first ship: n=%d payloads=%q", n, payloads)
	}

	// Nothing new completed: no request at all.
	if n, err := sh.ShipOnce(ctx); n != 0 || err != nil || len(payloads) != 1 {
		t.Fatalf("torn-only delta shipped: n=%d err=%v payloads=%q", n, err, payloads)
	}

	// The torn record's newline lands plus one more: exactly the delta ships.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n{\"a\":4}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	n, err = sh.ShipOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(payloads) != 2 || payloads[1] != "{\"a\":3}\n{\"a\":4}\n" {
		t.Fatalf("delta ship: n=%d payloads=%q", n, payloads)
	}

	// A shrunk journal (restart without -resume) resets the offset and
	// re-ships from the top — safe because merging is idempotent.
	if err := os.WriteFile(journal, []byte("{\"a\":9}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err = sh.ShipOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(payloads) != 3 || payloads[2] != "{\"a\":9}\n" {
		t.Fatalf("post-truncation ship: n=%d payloads=%q", n, payloads)
	}
}

// TestShipperFailureKeepsOffset: a failed ship must leave the offset
// unmoved so the same delta re-ships on the next attempt.
func TestShipperFailureKeepsOffset(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "worker.jsonl")
	if err := os.WriteFile(journal, []byte("{\"a\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fail := true
	var payloads []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail {
			http.Error(w, "merge: journal locked", http.StatusBadRequest)
			return
		}
		b, _ := io.ReadAll(r.Body)
		payloads = append(payloads, string(b))
		_, _ = w.Write([]byte(`{"received":1,"merged":0}`))
	}))
	defer srv.Close()

	sh := &Shipper{Coordinator: srv.URL, JournalPath: journal}
	if _, err := sh.ShipOnce(context.Background()); err == nil {
		t.Fatal("ship against a failing coordinator succeeded")
	}
	fail = false
	n, err := sh.ShipOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(payloads) != 1 || payloads[0] != "{\"a\":1}\n" {
		t.Fatalf("retry: n=%d payloads=%q", n, payloads)
	}
}

func TestShipperNeedsConfig(t *testing.T) {
	if err := (&Shipper{}).Run(context.Background()); err == nil {
		t.Error("Run without Coordinator/JournalPath succeeded")
	}
}

// TestShipperBackoffSchedule: the unjittered delay doubles per
// consecutive failure from RetryBase up to RetryMax, and the defaults
// fall back to 1s and the shipping interval.
func TestShipperBackoffSchedule(t *testing.T) {
	sh := &Shipper{RetryBase: time.Second, RetryMax: 8 * time.Second}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 8 * time.Second, 8 * time.Second,
	}
	for i, w := range want {
		if got := sh.nextDelay(i + 1); got != w {
			t.Errorf("failure %d: delay %v, want %v", i+1, got, w)
		}
	}

	// Defaults: base 1s, cap at Interval.
	def := &Shipper{Interval: 10 * time.Second}
	if got := def.nextDelay(1); got != time.Second {
		t.Errorf("default base: %v, want 1s", got)
	}
	if got := def.nextDelay(20); got != 10*time.Second {
		t.Errorf("default cap: %v, want Interval (10s)", got)
	}
	// No interval either: cap at the default shipping period.
	bare := &Shipper{}
	if got := bare.nextDelay(50); got != 30*time.Second {
		t.Errorf("bare cap: %v, want 30s", got)
	}
}

// TestShipperJitterBounds: jitter keeps the delay within [d/2, 3d/2).
func TestShipperJitterBounds(t *testing.T) {
	d := 4 * time.Second
	for i := 0; i < 200; i++ {
		j := jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
		}
	}
	if jitter(0) != 0 {
		t.Errorf("jitter(0) should be 0")
	}
}

// TestShipperRetriesCounterAndBackoffLoop runs the real Run loop against
// a coordinator that fails twice then succeeds: the retry counter must
// advance once per failure and the delta must eventually land intact.
func TestShipperRetriesCounterAndBackoffLoop(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "worker.jsonl")
	if err := os.WriteFile(journal, []byte("{\"cell\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	fails := 2
	var delivered []string
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "merge not ready", http.StatusServiceUnavailable)
			return
		}
		delivered = append(delivered, string(b))
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"received":1,"merged":1}`))
	}))
	defer coord.Close()

	sh := &Shipper{
		Coordinator: coord.URL, JournalPath: journal,
		Interval:  5 * time.Millisecond,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Logf: func(string, ...any) {},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = sh.Run(ctx) }()

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			cancel()
			t.Fatalf("delta never delivered (retries=%d)", sh.Retries())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done

	if got := sh.Retries(); got != 2 {
		t.Errorf("Retries() = %d, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered[0] != "{\"cell\":1}\n" {
		t.Errorf("delivered %q, want the full journal line", delivered[0])
	}
}

// TestShipperCapsEachPost: a journal tail longer than the per-POST limit
// arrives complete over several ShipOnce calls — every payload within the
// limit and cut at a newline, no byte shipped twice — and a single record
// that can never fit is an error, not a silent stall.
func TestShipperCapsEachPost(t *testing.T) {
	defer func(prev int64) { shipLimit = prev }(shipLimit)
	shipLimit = 20

	journal := filepath.Join(t.TempDir(), "worker.jsonl")
	var want strings.Builder
	for i := 1; i <= 9; i++ {
		want.WriteString(`{"a":` + itoa(i) + "}\n") // 8 bytes a record
	}
	if err := os.WriteFile(journal, []byte(want.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var payloads []string
	coord := fakeCoordinator(t, &payloads)
	defer coord.Close()
	sh := &Shipper{Coordinator: coord.URL, JournalPath: journal}

	records := 0
	for {
		n, err := sh.ShipOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		records += n
	}
	for i, p := range payloads {
		if int64(len(p)) > shipLimit || !strings.HasSuffix(p, "\n") {
			t.Errorf("payload %d is %d bytes (limit %d) or torn: %q", i, len(p), shipLimit, p)
		}
	}
	if got := strings.Join(payloads, ""); got != want.String() || records != 9 || len(payloads) < 2 {
		t.Errorf("shipped %d records in %d posts:\n%q\nwant the journal once, over several posts:\n%q",
			records, len(payloads), got, want.String())
	}

	if err := os.WriteFile(journal, []byte(strings.Repeat("x", 30)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Shipper{Coordinator: coord.URL, JournalPath: journal}).ShipOnce(context.Background()); err == nil {
		t.Error("a record longer than the ship limit was not reported")
	}
}
