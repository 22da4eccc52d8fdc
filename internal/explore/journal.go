package explore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
)

// record is one journal line. The journal is JSONL: one self-contained
// JSON object per line, appended as each cell completes, so a crashed or
// cancelled sweep or tuning loses at most the cell in flight. A resumed
// run replays the journal into the cache and simulates only missing
// cells; because records are content-addressed, a journal can safely be
// shared by overlapping sweeps and by sweeps with different options —
// mismatched cells simply never get looked up.
type record struct {
	Kind string `json:"kind"` // always "cell"; see walkJournal for "tuning"
	// Cell's fields, flattened into the line under Cell's JSON names;
	// provenance is absent on journals written before it existed, which
	// still replay.
	Cell
	// Fault is only ever read: older revisions wrote it on cells run under
	// a fault script, whose keys carry the script's digest and so can never
	// be looked up. walkJournal skips such a line.
	Fault json.RawMessage `json:"fault,omitempty"`
}

// journal appends completed records to a JSONL file.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// openJournal opens path for appending. With resume set, existing records
// are first replayed into cache (tolerating a torn final line from a
// crash); without it, an existing file is truncated.
func openJournal(path string, resume bool, cache *Cache) (*journal, int, error) {
	loaded := 0
	if resume {
		n, err := ReplayJournal(path, cache)
		if err != nil {
			return nil, 0, err
		}
		loaded = n
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("explore: open journal: %w", err)
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, loaded, nil
}

// walkJournal streams a journal's cells from r through fn, returning how
// many were delivered. A "tuning" line — journals written before tunings
// ran as cells hold them — is skipped silently: its result is recomputed
// from cells. So is a cell carrying a "fault" field, which no request can
// look up, so it would only hold cache room. A torn final line — the
// signature of a crash mid-append — is skipped with a logged warning; a
// corrupt line, an unknown kind or a cell without a key (the cache's "no
// cell") anywhere else is an error.
func walkJournal(r io.Reader, fn func(Cell)) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n, line := 0, 0
	var pendingErr error
	for sc.Scan() {
		line++
		if pendingErr != nil {
			// The bad line was not the final one: real corruption.
			return n, pendingErr
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pendingErr = fmt.Errorf("explore: journal line %d: %w", line, err)
			continue
		}
		switch {
		case rec.Kind == "cell" && rec.Fault != nil: // a fault-injected run: skipped, not counted
		case rec.Kind == "cell" && rec.Key != "":
			fn(rec.Cell)
			n++
		case rec.Kind == "cell":
			pendingErr = fmt.Errorf("explore: journal line %d: cell without a key", line)
		case rec.Kind == "tuning": // a pre-cell journal's summary line: skipped, not counted
		default:
			pendingErr = fmt.Errorf("explore: journal line %d: unknown kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("explore: reading journal: %w", err)
	}
	if pendingErr != nil {
		// Torn trailing record: the signature of a crash mid-append. The
		// cell in flight is lost (it will re-simulate); everything before
		// it was loaded, so warn and continue rather than refuse to resume.
		log.Printf("explore: resume: skipping torn trailing journal record: %v", pendingErr)
	}
	return n, nil
}

// ReplayJournal replays the journal file at path into cache, returning
// how many cells were loaded. Resume uses it, and so does anything that
// reads a journal without constructing an Explorer. A missing file is an
// empty journal, not an error (so -resume works on the first run too).
func ReplayJournal(path string, cache *Cache) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("explore: open journal for resume: %w", err)
	}
	defer f.Close()
	n, err := walkJournal(f, cache.PutCell)
	if err != nil {
		return n, fmt.Errorf("%w (in %s)", err, path)
	}
	return n, nil
}

// append writes one record and flushes it, so the journal is durable up
// to the last completed cell even if the process dies.
func (j *journal) append(rec record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("explore: encode journal record: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		return fmt.Errorf("explore: append journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("explore: flush journal: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

func cellRecord(c Cell) record { return record{Kind: "cell", Cell: c} }
