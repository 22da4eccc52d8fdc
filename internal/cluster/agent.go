package cluster

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"time"

	"wavescalar/internal/version"
)

// Agent is the worker side of the fabric's membership protocol: it
// registers with the coordinator, heartbeats at a third of the granted
// lease, re-registers whenever the coordinator stops recognizing it
// (coordinator restart, expired lease), and deregisters on shutdown so
// a graceful drain never waits out a lease. It does not execute cells —
// the worker's HTTP server does that; the Agent only keeps the worker's
// lease alive.
type Agent struct {
	// Coordinator is the coordinator's base URL, e.g. "http://coord:8080".
	Coordinator string
	// ID is this worker's stable identity; Addr is the base URL the
	// coordinator should dispatch to.
	ID, Addr string
	// Busy, when non-nil, samples the worker's in-flight simulation
	// count for heartbeats.
	Busy func() int
}

// Run registers and heartbeats until ctx is cancelled, then deregisters
// (best-effort, on a fresh short-lived context) and returns nil. Every
// cancelled exit takes that one path — including a cancellation that cuts
// off a registration's answer, which the coordinator may already have
// accepted. Registration failures are retried with backoff forever — a
// worker that outlives a coordinator restart rejoins on its own.
// Membership diagnostics go to the standard logger.
func (a *Agent) Run(ctx context.Context) error {
	if a.Coordinator == "" || a.ID == "" || a.Addr == "" {
		return fmt.Errorf("cluster: agent needs Coordinator, ID and Addr")
	}
	client := &http.Client{Timeout: 10 * time.Second}
	a.holdLease(ctx, client)
	a.deregister(client)
	return nil
}

// holdLease keeps the worker's lease alive until ctx is cancelled: it
// registers, heartbeats at a third of the granted lease, and re-registers
// whenever the coordinator stops recognizing it.
func (a *Agent) holdLease(ctx context.Context, client *http.Client) {
	lease, err := a.registerLoop(ctx, client)
	if err != nil {
		return
	}
	interval := lease / 3
	if interval <= 0 {
		interval = 5 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			busy := 0
			if a.Busy != nil {
				busy = a.Busy()
			}
			ok, err := a.heartbeat(ctx, client, busy)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				log.Printf("cluster: heartbeat to %s failed: %v", a.Coordinator, err)
				continue
			}
			if !ok {
				// Coordinator forgot us (restart or expiry): rejoin.
				log.Printf("cluster: lease lost, re-registering %s with %s", a.ID, a.Coordinator)
				if lease, err = a.registerLoop(ctx, client); err != nil {
					return
				}
				if ni := lease / 3; ni > 0 && ni != interval {
					interval = ni
					tick.Reset(interval)
				}
			}
		}
	}
}

// registerLoop registers until success or ctx cancellation, returning the
// granted lease. Failures back off 1s doubling to 30s, jittered, so a
// fleet that lost its coordinator re-registers spread out.
func (a *Agent) registerLoop(ctx context.Context, client *http.Client) (time.Duration, error) {
	for failures := 1; ; failures++ {
		lease, err := a.register(ctx, client)
		if err == nil {
			log.Printf("cluster: registered %s (%s) with %s, lease %s", a.ID, a.Addr, a.Coordinator, lease)
			return lease, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		delay := jitter(backoff(time.Second, 30*time.Second, failures))
		log.Printf("cluster: register with %s failed (retrying in %s): %v", a.Coordinator, delay.Round(time.Millisecond), err)
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(delay):
		}
	}
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

func (a *Agent) register(ctx context.Context, client *http.Client) (time.Duration, error) {
	var resp RegisterResponse
	err := postJSON(ctx, client, a.Coordinator+"/v1/cluster/register",
		RegisterRequest{ID: a.ID, Addr: a.Addr, Version: version.Get("wsd")}, &resp)
	if err != nil {
		return 0, err
	}
	return time.Duration(resp.LeaseS * float64(time.Second)), nil
}

func (a *Agent) heartbeat(ctx context.Context, client *http.Client, busy int) (bool, error) {
	var resp HeartbeatResponse
	err := postJSON(ctx, client, a.Coordinator+"/v1/cluster/heartbeat", HeartbeatRequest{ID: a.ID, Busy: busy}, &resp)
	if isStatus(err, http.StatusNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// deregister announces a graceful drain; failures only mean the lease
// expires on its own.
func (a *Agent) deregister(client *http.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := postJSON(ctx, client, a.Coordinator+"/v1/cluster/deregister", DeregisterRequest{ID: a.ID}, nil); err != nil {
		log.Printf("cluster: deregister from %s failed (lease will expire): %v", a.Coordinator, err)
		return
	}
	log.Printf("cluster: deregistered %s from %s", a.ID, a.Coordinator)
}
