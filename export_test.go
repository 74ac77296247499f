package gir

// CachedGIRs exposes the regions the engine's cache holds, so the external
// differential tests can compare what a fill cached against ComputeGIR.
func (e *Engine) CachedGIRs() []*GIR {
	var out []*GIR
	for _, entry := range e.cache.inner.Entries() {
		out = append(out, &GIR{region: entry.Region})
	}
	return out
}
