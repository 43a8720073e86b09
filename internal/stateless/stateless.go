// Package stateless derives the recoverable part of Yoda's flow state
// from values the packets already carry, in the spirit of Cohen et al.'s
// hybrid stateful/stateless load balancing: most flows never need the
// durable store because everything the data plane wrote about them is a
// deterministic function of the 5-tuple, a per-deployment secret, and a
// small versioned epoch table.
//
// The derivable pieces are:
//
//   - backend choice: the L7 split decision replayed from a keyed hash of
//     the client tuple over the VIP's recorded backend pool (mirroring
//     rules.pickSplit's positive-weight walk with every backend alive);
//   - SNAT source port: a cookie-coded port inside the owning instance's
//     registered range, carrying the mapping-epoch's low bits so stale
//     flows are detectable (DecodeCookie);
//   - owning instance: rendezvous hashing over the epoch entry's
//     instance list, bit-identical to the l4lb mux pick, with dead
//     instances skipped the same way the mux skips them;
//   - backend ISN: a SYN-cookie-style keyed hash (tcp.DeterministicISN
//     with ISNKey) that lets a recovering instance rebuild the Delta
//     sequence translation without reading the record back.
//
// Everything else — keep-alive backend switches, TLS session keys, flows
// whose selection deviated from the derivation (sticky hits, health
// drift, port-collision fallback, stale mux mappings) — is residue that
// stays on the paper-faithful persist-before-ACK path. The write-time
// self-check in core compares the derivation's outcome against the state
// actually installed, so residue classification is sound by construction
// rather than by enumerating causes.
//
// Epoch discipline: planned reconfiguration bumps the epoch and flushes
// still-unpersisted flows to the store before new flows are admitted
// under the new mapping, so an unpersisted orphan is always established
// under the current epoch and derivation against the current entry is
// correct. Instance death deliberately does NOT bump the epoch — the
// whole point is recovering the dead instance's unpersisted flows, which
// requires the entry they were established under to stay current.
package stateless

import (
	"repro/internal/l4lb"
	"repro/internal/netsim"
	"repro/internal/rules"
)

// Salt constants separating the table's independent hash domains.
const (
	drawSalt uint64 = 0x9e3779b97f4a7c15 // backend-split draw
	portSalt uint64 = 0xc2b2ae3d27d4eb4f // SNAT preferred-port offset
	isnSalt  uint64 = 0x165667b19e3779f9 // derived tcp.Config.ISNKey
)

// Backend is one member of a VIP's derivable split pool.
type Backend struct {
	Name   string
	Addr   netsim.HostPort
	Weight float64
}

// VIPEntry is the epoch table's snapshot for one VIP: the instance list
// the muxes spread its flows over and the backend pool the L7 split
// draws from. Both are immutable once installed; reconfiguration
// installs a fresh entry and bumps the epoch.
type VIPEntry struct {
	Instances []netsim.IP
	Pool      []Backend
}

// Range is one instance's registered SNAT port range.
type Range struct {
	Inst  netsim.IP
	Base  uint16
	Count uint16
}

// Table is the shared derivation state: a per-deployment secret, the
// current mapping epoch, per-VIP entries, the SNAT range registry, and
// the set of instances currently considered dead. One Table is shared by
// every instance of a cluster, inside its single event loop.
type Table struct {
	secret uint64
	epoch  uint64
	vips   map[netsim.IP]VIPEntry
	ranges []Range // append-only; later registrations win on conflicts
	dead   map[netsim.IP]bool
}

// New creates a table with the given per-deployment secret.
func New(secret uint64) *Table {
	return &Table{
		secret: secret,
		vips:   make(map[netsim.IP]VIPEntry),
		dead:   make(map[netsim.IP]bool),
	}
}

// ISNKey returns the non-zero tcp.Config.ISNKey backends must use so the
// data plane can re-derive their initial sequence numbers.
func (t *Table) ISNKey() uint64 {
	k := l4lb.Mix64(t.secret ^ isnSalt)
	if k == 0 {
		k = 1
	}
	return k
}

// Epoch returns the current mapping epoch.
func (t *Table) Epoch() uint64 { return t.epoch }

// Bump advances the mapping epoch. The caller (controller/reconfig) must
// flush still-unpersisted flows on live instances immediately after, so
// that every unpersisted flow in the system is established under the
// current epoch.
func (t *Table) Bump() { t.epoch++ }

// SetVIP installs the entry for a VIP. The slices are retained; callers
// pass fresh snapshots.
func (t *Table) SetVIP(vip netsim.IP, e VIPEntry) { t.vips[vip] = e }

// RemoveVIP forgets a VIP's entry.
func (t *Table) RemoveVIP(vip netsim.IP) { delete(t.vips, vip) }

// VIP returns the entry for a VIP.
func (t *Table) VIP(vip netsim.IP) (VIPEntry, bool) {
	e, ok := t.vips[vip]
	return e, ok
}

// RegisterRange records an instance's SNAT range. Re-registering (an
// instance restarting with a fresh range) appends; DecodeCookie prefers
// the most recent registration for overlapping ports.
func (t *Table) RegisterRange(inst netsim.IP, base, count uint16) {
	t.ranges = append(t.ranges, Range{Inst: inst, Base: base, Count: count})
}

// MarkDead records that an instance failed. Death does not bump the
// epoch (see package comment).
func (t *Table) MarkDead(inst netsim.IP) { t.dead[inst] = true }

// Revive clears an instance's dead mark after it rejoins.
func (t *Table) Revive(inst netsim.IP) { delete(t.dead, inst) }

// Dead reports whether an instance is currently marked dead.
func (t *Table) Dead(inst netsim.IP) bool { return t.dead[inst] }

// Draw maps a client tuple to a uniform [0,1) value keyed by the table
// secret — the deterministic replacement for the per-instance RNG draw
// that feeds the L7 split in hybrid mode.
func (t *Table) Draw(ft netsim.FourTuple) float64 {
	return float64(l4lb.TupleHash(ft, t.secret^drawSalt)>>11) / (1 << 53)
}

// DeriveBackend replays the split decision for a client tuple against
// the VIP's recorded pool: rules.pickSplit's positive-weight walk with
// every backend alive, consuming Draw(ft) as the random value. It
// reports ok=false when the pool is not derivable (unknown VIP, empty
// pool, any non-positive weight); such VIPs simply keep every flow on
// the persisted path.
func (t *Table) DeriveBackend(vip netsim.IP, ft netsim.FourTuple) (Backend, bool) {
	e, ok := t.vips[vip]
	if !ok || len(e.Pool) == 0 {
		return Backend{}, false
	}
	total := 0.0
	for _, b := range e.Pool {
		if b.Weight <= 0 {
			return Backend{}, false
		}
		total += b.Weight
	}
	x := t.Draw(ft) * total
	for _, b := range e.Pool {
		if x < b.Weight {
			return b, true
		}
		x -= b.Weight
	}
	return e.Pool[len(e.Pool)-1], true
}

// Owner returns the instance a client tuple lands on under the current
// entry, skipping dead instances exactly the way the mux does (the
// chain-walk's first alive pick equals rendezvous over the live subset).
func (t *Table) Owner(vip netsim.IP, ft netsim.FourTuple) (netsim.IP, bool) {
	e, ok := t.vips[vip]
	if !ok || len(e.Instances) == 0 {
		return 0, false
	}
	var scratch [64]netsim.IP
	insts := append(scratch[:0], e.Instances...)
	for len(insts) > 0 {
		p := l4lb.Rendezvous(ft, insts)
		if !t.dead[p] {
			return p, true
		}
		insts = removeIP(insts, p)
	}
	return 0, false
}

// DeadOwnerCandidates returns, in order, the dead instances a client
// tuple's rendezvous chain passes through before reaching an alive one:
// the instances that could have owned the flow when they died. An orphan
// with exactly one candidate can be re-derived with certainty; more than
// one means the flow's history is ambiguous and recovery must wait for
// corroboration (a backend knock or a store record).
func (t *Table) DeadOwnerCandidates(vip netsim.IP, ft netsim.FourTuple, buf []netsim.IP) []netsim.IP {
	buf = buf[:0]
	e, ok := t.vips[vip]
	if !ok || len(e.Instances) == 0 {
		return buf
	}
	var scratch [64]netsim.IP
	insts := append(scratch[:0], e.Instances...)
	for len(insts) > 0 {
		p := l4lb.Rendezvous(ft, insts)
		if !t.dead[p] {
			break
		}
		buf = append(buf, p)
		insts = removeIP(insts, p)
	}
	return buf
}

// PreferredPort returns the cookie-coded SNAT source port an instance
// should try first for a client tuple: the current epoch's quarter of
// its range, offset by a keyed hash. ok=false when the instance has no
// registered range or the range is too small to quarter (such instances
// allocate sequentially and their flows stay persisted).
func (t *Table) PreferredPort(inst netsim.IP, ft netsim.FourTuple) (uint16, bool) {
	r, ok := t.rangeOf(inst)
	if !ok {
		return 0, false
	}
	quarter := r.Count / 4
	if quarter == 0 {
		return 0, false
	}
	slot := uint16(t.epoch & 3)
	off := uint16(l4lb.TupleHash(ft, t.secret^portSalt) % uint64(quarter))
	return r.Base + slot*quarter + off, true
}

// DecodeCookie inspects a SNAT source port: which registered instance
// owns it, and whether its epoch bits match the current epoch. ok=false
// for ports outside every registered range and for the range tail beyond
// the four epoch quarters (sequential-fallback ports are never
// cookie-coded — those flows were persisted at the barrier).
func (t *Table) DecodeCookie(port uint16) (owner netsim.IP, current, ok bool) {
	for i := len(t.ranges) - 1; i >= 0; i-- {
		r := t.ranges[i]
		if port < r.Base || uint32(port) >= uint32(r.Base)+uint32(r.Count) {
			continue
		}
		quarter := r.Count / 4
		if quarter == 0 {
			return 0, false, false
		}
		off := port - r.Base
		if off >= 4*quarter {
			return 0, false, false
		}
		return r.Inst, off/quarter == uint16(t.epoch&3), true
	}
	return 0, false, false
}

// rangeOf returns the most recent range registered for an instance.
func (t *Table) rangeOf(inst netsim.IP) (Range, bool) {
	for i := len(t.ranges) - 1; i >= 0; i-- {
		if t.ranges[i].Inst == inst {
			return t.ranges[i], true
		}
	}
	return Range{}, false
}

func removeIP(s []netsim.IP, ip netsim.IP) []netsim.IP {
	for i, v := range s {
		if v == ip {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// PoolFromRules extracts the derivable backend pool from a VIP's rule
// table: the table must be a single universally-matching weighted split
// with every weight positive. Anything richer (multiple rules, header or
// cookie matches, sticky tables, least-loaded weights) is not derivable
// and reports ok=false — flows for such VIPs all take the persisted
// path, which is always correct, just not cheap.
func PoolFromRules(rs []rules.Rule) ([]Backend, bool) {
	if len(rs) != 1 {
		return nil, false
	}
	r := rs[0]
	m := r.Match
	universal := (m.URLGlob == "" || m.URLGlob == "*") &&
		m.Host == "" && m.Method == "" &&
		m.CookieName == "" && m.CookieGlob == "" &&
		m.HeaderName == "" && m.HeaderGlob == ""
	if !universal || r.Action.Type != rules.ActionSplit || len(r.Action.Split) == 0 {
		return nil, false
	}
	pool := make([]Backend, 0, len(r.Action.Split))
	for _, wb := range r.Action.Split {
		if wb.Weight <= 0 {
			return nil, false
		}
		pool = append(pool, Backend{Name: wb.Backend.Name, Addr: wb.Backend.Addr, Weight: wb.Weight})
	}
	return pool, true
}
