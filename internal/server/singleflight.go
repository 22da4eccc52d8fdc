package server

import (
	"sync"

	"wavescalar/internal/explore"
)

// flightGroup deduplicates concurrent identical run requests: the first
// request for a cache key becomes the leader and owns the queued
// simulation; every request for the same key that arrives while it is in
// flight becomes a follower and waits on the same call. Combined with the
// content-addressed cache this gives the daemon its cost model — N
// identical concurrent requests cost one simulation, and N identical
// sequential requests cost one simulation ever.
//
// Unlike x/sync/singleflight (not vendored; the repo is dependency-free),
// completion is decoupled from execution: the leader's HTTP handler
// enqueues a job and the worker pool completes the call, so a leader
// whose client disconnects does not abandon its followers.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight simulation shared by its waiters.
type flightCall struct {
	done chan struct{} // closed on completion
	cell explore.Cell
	err  error // non-nil only for non-deterministic outcomes (shutdown)
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the call for key, creating it if absent. leader reports
// whether the caller created the call (and so must arrange its execution
// or complete it with an error).
func (g *flightGroup) join(key string) (call *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// complete resolves the call and wakes every waiter. The call is removed
// from the group first, so requests arriving after completion start fresh
// (and will hit the result cache instead). A leader whose job never got
// queued (admission failure) completes its call with that error, so the
// next request for the key can lead again.
func (g *flightGroup) complete(key string, c *flightCall, cell explore.Cell, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.cell, c.err = cell, err
	close(c.done)
}
