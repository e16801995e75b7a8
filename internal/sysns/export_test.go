package sysns

// UseFullWalk pins m to the historical full walk: every delivered
// trigger rebuilds the share cache and every namespace's bounds from
// live hierarchy state (FullRecompute), with no event-time subtree work
// and no deferred pass. A monitor driven this way is the reference the
// differential tests compare the production recompute protocol
// against. Call it before the first Attach.
func (m *Monitor) UseFullWalk() { m.fullWalk = true }
