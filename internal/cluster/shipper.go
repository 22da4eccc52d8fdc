package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// Shipper periodically ships a worker's journal delta to its
// coordinator, closing the fabric's one durability gap: cells a worker
// simulated for *local* requests (plain /v1/runs against the worker, or
// coordinator dispatches whose sweep was since cancelled) live only in
// that worker's journal, so a worker cold-restart used to forget them
// as far as the rest of the fabric was concerned. The shipper tails the
// worker's own journal file from a tracked offset and POSTs each new
// complete-line chunk to the coordinator's /v1/cluster/journal, which
// folds it into the shared result space via the explorer's idempotent
// MergeJournal — records the coordinator already has are skipped, so
// re-shipping (offset lost, worker restarted without -resume) costs
// bandwidth, never correctness.
type Shipper struct {
	// Coordinator is the coordinator's base URL; JournalPath the
	// worker's own journal file.
	Coordinator string
	JournalPath string
	// Interval is the shipping period (default 30s).
	Interval time.Duration
	// Logf receives shipping diagnostics (default log.Printf).
	Logf func(format string, args ...any)
	// Client is the HTTP client used (default: 30s timeout).
	Client *http.Client
	// RetryBase and RetryMax bound the backoff after a failed ship: the
	// delay starts at RetryBase (default 1s), doubles per consecutive
	// failure up to RetryMax (default Interval), and is jittered ±50% so
	// a fleet of workers that lost the same coordinator does not retry
	// in lockstep. A successful ship resets the schedule to Interval.
	RetryBase time.Duration
	RetryMax  time.Duration

	offset  int64 // bytes of JournalPath already acknowledged
	retries atomic.Uint64
}

// Retries reports how many ship attempts have failed and been
// rescheduled — the value behind the wsd_shipper_retries_total metric.
func (sh *Shipper) Retries() uint64 { return sh.retries.Load() }

// nextDelay computes the post-failure backoff for the given consecutive
// failure count (1 = first failure), before jitter.
func (sh *Shipper) nextDelay(consecutive int) time.Duration {
	base := sh.RetryBase
	if base <= 0 {
		base = time.Second
	}
	maxDelay := sh.RetryMax
	if maxDelay <= 0 {
		maxDelay = sh.Interval
		if maxDelay <= 0 {
			maxDelay = 30 * time.Second
		}
	}
	return backoff(base, maxDelay, consecutive)
}

// backoff is the unjittered delay after the given count of consecutive
// failures (1 = first): base, doubling per failure up to maxDelay.
func backoff(base, maxDelay time.Duration, consecutive int) time.Duration {
	d := base
	for i := 1; i < consecutive && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// jitter spreads a delay uniformly over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Run ships on every interval until ctx is cancelled, then ships one
// final delta on a short grace context so a graceful drain loses nothing
// that reached the journal. A failed ship is retried on a jittered
// exponential backoff (see RetryBase/RetryMax) instead of waiting a full
// interval — the delta stays unacknowledged, so nothing is skipped.
func (sh *Shipper) Run(ctx context.Context) error {
	if sh.Coordinator == "" || sh.JournalPath == "" {
		return fmt.Errorf("cluster: shipper needs Coordinator and JournalPath")
	}
	logf := sh.Logf
	if logf == nil {
		logf = log.Printf
	}
	interval := sh.Interval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	timer := time.NewTimer(interval)
	defer timer.Stop()
	consecutive := 0
	for {
		select {
		case <-ctx.Done():
			final, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if n, err := sh.ShipOnce(final); err != nil {
				logf("cluster: final journal ship failed (cells re-ship on restart): %v", err)
			} else if n > 0 {
				logf("cluster: final journal ship delivered %d records", n)
			}
			cancel()
			return nil
		case <-timer.C:
			n, err := sh.ShipOnce(ctx)
			if err != nil {
				if ctx.Err() != nil {
					continue // cancellation races the final ship above
				}
				consecutive++
				sh.retries.Add(1)
				delay := jitter(sh.nextDelay(consecutive))
				logf("cluster: journal ship to %s failed (retry %d in %s): %v",
					sh.Coordinator, consecutive, delay.Round(time.Millisecond), err)
				timer.Reset(delay)
				continue
			}
			if n > 0 {
				logf("cluster: shipped %d journal records to %s", n, sh.Coordinator)
			}
			consecutive = 0
			timer.Reset(interval)
		}
	}
}

// shipLimit caps the bytes one ShipOnce reads and posts (a variable only so
// a test can lower it).
var shipLimit int64 = MaxJournalDelta

// ShipOnce ships the journal delta since the last acknowledged offset,
// returning how many records the coordinator received. Only complete
// lines ship — a record mid-append waits for the next tick — and at most
// MaxJournalDelta bytes per call, cut at the last newline: the rest of a
// longer tail ships on the next call. A journal that shrank (restart
// without -resume truncates it) resets the offset and re-ships from the
// top; merging is idempotent on the cell key.
func (sh *Shipper) ShipOnce(ctx context.Context) (int, error) {
	f, err := os.Open(sh.JournalPath)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() < sh.offset {
		sh.offset = 0
	}
	if st.Size() == sh.offset {
		return 0, nil
	}
	if _, err := f.Seek(sh.offset, io.SeekStart); err != nil {
		return 0, err
	}
	buf := make([]byte, min(st.Size()-sh.offset, shipLimit))
	if _, err := io.ReadFull(f, buf); err != nil {
		return 0, err
	}
	end := bytes.LastIndexByte(buf, '\n')
	if end < 0 {
		if int64(len(buf)) == shipLimit {
			return 0, fmt.Errorf("cluster: journal record at offset %d exceeds the %d-byte ship limit", sh.offset, shipLimit)
		}
		return 0, nil // one torn record so far; wait for its newline
	}
	payload := buf[:end+1]

	client := sh.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var ack JournalResponse
	if err := post(ctx, client, sh.Coordinator+"/v1/cluster/journal", "application/x-ndjson", payload, &ack); err != nil {
		return 0, err
	}
	sh.offset += int64(len(payload))
	return ack.Received, nil
}
