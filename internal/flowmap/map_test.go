package flowmap

import "repro/internal/netsim"

// Map is the plain-Go-map reference implementation of Table: exact
// (its LookupMaybe never false-hits, since the full tuple is the key)
// and linear in memory. It lives in the tests as the differential oracle
// for Compact, like the rules and memcache reference oracles.
type Map struct {
	m     map[netsim.FourTuple]Value
	epoch uint64
}

var _ Table = (*Map)(nil)

// NewMap returns an empty reference table.
func NewMap() *Map {
	return &Map{m: make(map[netsim.FourTuple]Value)}
}

// Insert maps ft to v.
func (t *Map) Insert(ft netsim.FourTuple, v Value) bool {
	t.m[ft] = v
	return true
}

// LookupMaybe returns the value stored for ft. For Map the "maybe" is
// exact: a hit is returned only for inserted tuples.
func (t *Map) LookupMaybe(ft netsim.FourTuple) (Value, bool) {
	v, ok := t.m[ft]
	return v, ok
}

// Delete removes ft's entry.
func (t *Map) Delete(ft netsim.FourTuple) bool {
	if _, ok := t.m[ft]; !ok {
		return false
	}
	delete(t.m, ft)
	return true
}

// EvictValue removes every entry mapping to v — the O(n) scan the
// compact structure's generation bump replaces.
func (t *Map) EvictValue(v Value) {
	t.epoch++
	for ft, have := range t.m {
		if have == v {
			delete(t.m, ft)
		}
	}
}

// Len returns the number of live entries.
func (t *Map) Len() int { return len(t.m) }

// Epoch returns the eviction-bump count.
func (t *Map) Epoch() uint64 { return t.epoch }
