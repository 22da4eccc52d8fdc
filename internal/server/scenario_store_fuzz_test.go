package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavescalar/internal/scenario"
)

// storeDoc returns a distinct valid scenario document (keyed by name)
// plus its canonical stored line and digest.
func storeDoc(t *testing.T, name string) (line []byte, digest string) {
	t.Helper()
	doc := fmt.Sprintf(`{
	  "scenario": "v1",
	  "name": %q,
	  "workload": {"name": "fft"},
	  "scale": "tiny",
	  "threads": [1],
	  "phases": [{"name": "only"}]
	}`, name)
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	line, err = json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return line, sc.Digest()
}

// reloadStore opens a server over the store file and returns it with a
// test listener; any error fails the test — reload must always salvage.
func reloadStore(t *testing.T, path string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(WithScenarioStore(path))
	if err != nil {
		t.Fatalf("reload over damaged store must salvage, got: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestScenarioStoreReloadSkipsCorruptLines: corruption anywhere in the
// file — not just a torn tail — is skipped with every intact record
// kept. A daemon must never refuse to start over one bad byte in a
// content-addressed log.
func TestScenarioStoreReloadSkipsCorruptLines(t *testing.T) {
	lineA, digA := storeDoc(t, "alpha")
	lineB, digB := storeDoc(t, "beta")
	lineC, digC := storeDoc(t, "gamma")

	var buf bytes.Buffer
	buf.Write(lineA)
	buf.WriteByte('\n')
	buf.WriteString("{\"scenario\": \"v1\", truncated mid-reco\n") // torn by a crash mid-append
	buf.Write(lineB)
	buf.WriteByte('\n')
	buf.WriteString("complete garbage, not even JSON\n")
	buf.WriteString("\n")                                    // blank lines are ignored, not warned about
	buf.WriteString(`{"scenario":"v1","name":"bad"}` + "\n") // JSON, but not a valid scenario
	buf.Write(lineA)                                         // duplicate digest collapses
	buf.WriteByte('\n')
	buf.Write(lineC[:len(lineC)*2/3]) // truncated final record, no newline

	path := filepath.Join(t.TempDir(), "wsd.scenarios")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := reloadStore(t, path)
	if n := len(srv.scenarios); n != 2 {
		t.Errorf("loaded %d scenarios, want 2 (intact alpha+beta, dedup'd)", n)
	}
	for _, dig := range []string{digA, digB} {
		if code := getStatus(t, ts.URL+"/v1/scenarios/"+dig); code != http.StatusOK {
			t.Errorf("intact record %s: status %d after reload, want 200", dig[:8], code)
		}
	}
	if code := getStatus(t, ts.URL+"/v1/scenarios/"+digC); code != http.StatusNotFound {
		t.Errorf("truncated record %s: status %d, want 404", digC[:8], code)
	}
}

// TestScenarioStoreReloadSkipsFaultedScenario: a store written by a
// revision that took fault scripts may hold a scenario with one. Reload
// skips that line with a logged warning naming the field, keeps the rest,
// and the daemon starts.
func TestScenarioStoreReloadSkipsFaultedScenario(t *testing.T) {
	lineA, digA := storeDoc(t, "alpha")
	faulted := `{"scenario":"v1","name":"faulty","workload":{"name":"fft"},"scale":"tiny","threads":[1],"fault":{"seed":7,"link_flip_rate":0.001}}`
	path := filepath.Join(t.TempDir(), "wsd.scenarios")
	if err := os.WriteFile(path, []byte(faulted+"\n"+string(lineA)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	srv, ts := reloadStore(t, path)
	if n := len(srv.scenarios); n != 1 {
		t.Errorf("loaded %d scenarios, want 1", n)
	}
	if code := getStatus(t, ts.URL+"/v1/scenarios/"+digA); code != http.StatusOK {
		t.Errorf("intact record: status %d after reload, want 200", code)
	}
	if got := logBuf.String(); !strings.Contains(got, "line 1: skipping unreadable record") || !strings.Contains(got, `unknown field "fault"`) {
		t.Errorf("reload log does not name the skipped line and field:\n%s", got)
	}
}

// TestScenarioStoreReloadAppendAfterSalvage: a salvaged store stays
// writable — new scenarios append past the corruption and survive the
// next restart.
func TestScenarioStoreReloadAppendAfterSalvage(t *testing.T) {
	lineA, digA := storeDoc(t, "alpha")
	path := filepath.Join(t.TempDir(), "wsd.scenarios")
	if err := os.WriteFile(path, append(append([]byte("garbage line\n"), lineA...), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts1 := reloadStore(t, path)
	lineNew, _ := storeDoc(t, "posted-after-salvage")
	posted := postScenario(t, ts1.URL, string(lineNew))
	if !posted.Created {
		t.Fatalf("post after salvage: %+v", posted)
	}
	ts1.Close()

	srv2, ts2 := reloadStore(t, path)
	if n := len(srv2.scenarios); n != 2 {
		t.Errorf("second reload: %d scenarios, want 2", n)
	}
	for _, dig := range []string{digA, posted.Digest} {
		if code := getStatus(t, ts2.URL+"/v1/scenarios/"+dig); code != http.StatusOK {
			t.Errorf("record %s lost across salvage+append+restart: status %d", dig[:8], code)
		}
	}
}

// TestScenarioStoreReloadFuzz: seeded randomized damage — valid records
// interleaved with random corruption (flipped bytes, truncated copies,
// raw noise, duplicates) in random order. Every reload must succeed
// without panicking and serve every record whose line survived intact.
func TestScenarioStoreReloadFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 25; round++ {
		var buf bytes.Buffer
		intact := map[string]bool{} // digest -> must be served
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			line, dig := storeDoc(t, fmt.Sprintf("doc-%d-%d", round, i))
			switch rng.Intn(4) {
			case 0: // intact record
				buf.Write(line)
				buf.WriteByte('\n')
				intact[dig] = true
			case 1: // truncated mid-record (strictly shorter, so never valid)
				cut := 1 + rng.Intn(len(line)-1)
				buf.Write(line[:cut])
				buf.WriteByte('\n')
			case 2: // flipped byte inside the record
				mut := append([]byte(nil), line...)
				mut[rng.Intn(len(mut))] ^= 0xFF
				buf.Write(mut)
				buf.WriteByte('\n')
				if sc, err := scenario.Parse(mut); err == nil {
					intact[sc.Digest()] = true // flip landed somewhere harmless
				}
			case 3: // raw noise
				junk := make([]byte, 1+rng.Intn(40))
				rng.Read(junk)
				buf.WriteString(strings.Map(func(r rune) rune {
					if r == '\n' || r == '\r' {
						return ' '
					}
					return r
				}, string(junk)))
				buf.WriteByte('\n')
			}
			if rng.Intn(3) == 0 { // occasional duplicate of the last line written
				buf.Write(line)
				buf.WriteByte('\n')
				intact[dig] = true
			}
		}
		if rng.Intn(2) == 0 { // torn tail: no trailing newline
			line, _ := storeDoc(t, fmt.Sprintf("torn-%d", round))
			buf.Write(line[:len(line)/2])
		}

		path := filepath.Join(t.TempDir(), fmt.Sprintf("fuzz-%d.scenarios", round))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, ts := reloadStore(t, path)
		if len(srv.scenarios) < len(intact) {
			t.Errorf("round %d: loaded %d scenarios, want at least %d intact", round, len(srv.scenarios), len(intact))
		}
		for dig := range intact {
			if code := getStatus(t, ts.URL+"/v1/scenarios/"+dig); code != http.StatusOK {
				t.Errorf("round %d: intact record %s: status %d, want 200", round, dig[:8], code)
			}
		}
	}
}
