// Package engine provides the concurrency primitives under gir.Engine:
// single-flight deduplication of identical in-flight computations, a
// bounded worker pool for batch fan-out, and a Zipfian query-stream
// generator for serving workloads.
//
// Everything here is deliberately generic — no dependency on the gir
// packages — so the primitives stay independently testable and reusable.
package engine

import "sync"

// Call is one in-flight or completed computation for a key. Leaders fill
// it through Group.Done; everyone else blocks in Wait.
type Call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Wait blocks until the call's leader publishes a result and returns it.
func (c *Call) Wait() (any, error) {
	c.wg.Wait()
	return c.val, c.err
}

// Group deduplicates concurrent computations by key: while one call for a
// key is in flight, later claims of the same key wait for it and share its
// result instead of computing again. Completed calls are forgotten
// immediately (this is request collapsing, not caching — the caller
// layers its own cache on top).
//
// The discipline is split in two, Claim and Done, because the engine
// computes MANY claimed keys in one fused operation: claim every key
// first, run the single computation, then publish per-key results. One
// key is the same sequence with one claim.
type Group struct {
	mu sync.Mutex
	m  map[string]*Call
}

// Claim registers this caller as the key's leader if no call is in
// flight, returning leader=true; the caller MUST eventually publish with
// Done(key, c, ...) or every waiter deadlocks. With leader=false the
// returned Call is another leader's; wait on it with Call.Wait.
func (g *Group) Claim(key string) (c *Call, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*Call)
	}
	if c, ok := g.m[key]; ok {
		return c, false
	}
	c = &Call{}
	c.wg.Add(1)
	g.m[key] = c
	return c, true
}

// Done publishes a claimed call's result and releases every waiter. Only
// the leader returned by Claim(key) may call it, exactly once.
func (g *Group) Done(key string, c *Call, val any, err error) {
	c.val, c.err = val, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
}
