// Package flowmap provides compact, versioned flow-mapping tables: a
// four-tuple maps to a small Value in a few bytes per live flow, with
// O(1) insert/lookup/delete, zero steady-state allocation, and O(1)
// eviction of every entry holding a given value (an epoch bump).
//
// The package exists because the load balancer's hot layers — the L4
// mux affinity tables and the L7 instance flow index — otherwise keep
// one Go map entry per live flow, so memory and GC pressure scale
// linearly with concurrent flows. Concury (PAPERS.md) shows the
// flow→backend mapping of a software LB fits in a few bytes per flow
// if the structure is allowed to answer "maybe" for tuples it never
// saw; this package adopts that contract explicitly.
//
// # The false-hit contract
//
// Compact keeps a 64-bit hash tag per entry instead of the full
// 12-byte tuple, so two distinct tuples can alias. LookupMaybe is
// named for that: a true result is authoritative for every tuple that
// was inserted and not deleted or evicted, but a tuple that was NEVER
// inserted may still return a (valid-looking) value. Callers fall into
// two camps:
//
//   - Callers holding richer per-flow state (core.Instance keeps the
//     *flow objects) must validate a maybe-hit against that state and
//     treat a mismatch as a miss. This restores exactness.
//   - Callers with no richer state (an L4 mux affinity table) must be
//     positioned so a false hit is benign — for a mux it merely routes
//     an unknown flow with affinity-grade stickiness, which is the
//     Concury discipline: correctness-critical decisions (new
//     connections) never reach the compact lookup.
//
// # Versioning
//
// Values are versioned: EvictValue(v) atomically invalidates every
// entry currently mapping to v — an O(1) generation bump, not an
// O(flows) scan — and increments the table epoch. Entries inserted
// after the bump are valid. This is what turns "instance X died, drop
// its affinity entries" from a scan into a constant-time operation,
// and what keeps lookups against the surviving entries consistent
// while a backend-set change installs: an entry either still matches
// its value's current generation (old assignment, still routable) or
// misses cleanly.
package flowmap

import "repro/internal/netsim"

// Value is the small per-flow payload a Table stores: a backend index,
// an instance-pair index, or a slot index into a caller-owned store.
type Value = uint32

// Table is the flow-mapping contract shared by the compact structure
// and the plain-map reference oracle.
type Table interface {
	// Insert maps ft to v, overwriting any existing entry for ft.
	// It reports false only when the implementation cannot place the
	// entry (Compact grows instead, so it always reports true).
	Insert(ft netsim.FourTuple, v Value) bool

	// LookupMaybe returns the value stored for ft. The result is
	// authoritative for inserted tuples; for tuples never inserted a
	// compact implementation MAY return a false hit (see the package
	// comment). Callers must validate or be positioned so a false hit
	// is benign — the method name is the reminder.
	LookupMaybe(ft netsim.FourTuple) (Value, bool)

	// Delete removes ft's entry, reporting whether a live entry was
	// removed. Deleting a tuple that was never inserted may, with the
	// same aliasing probability as a false hit, remove another tuple's
	// entry — only delete tuples you inserted.
	Delete(ft netsim.FourTuple) bool

	// EvictValue invalidates every live entry currently mapping to v
	// in O(1) and bumps the table epoch. Entries inserted afterwards
	// with the same value are valid.
	EvictValue(v Value)

	// Len returns the number of live entries (insertions minus
	// deletions minus entries invalidated by EvictValue).
	Len() int

	// Epoch returns the number of eviction bumps applied, a version
	// counter observers can use to detect backend-set changes.
	Epoch() uint64
}

// Compile-time interface check.
var _ Table = (*Compact)(nil)

// hashTuple digests a tuple into the 64-bit tag Compact stores: FNV-1a
// over the tuple words followed by the splitmix64 finalizer (plain FNV
// spreads the small differences typical of tuples — sequential ports,
// adjacent IPs — poorly). Zero is reserved for empty slots.
func hashTuple(ft netsim.FourTuple) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	h = (h ^ uint64(ft.Src.IP)) * prime
	h = (h ^ uint64(ft.Src.Port)) * prime
	h = (h ^ uint64(ft.Dst.IP)) * prime
	h = (h ^ uint64(ft.Dst.Port)) * prime
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}
