package stateless

import (
	"math/rand"
	"testing"

	"repro/internal/l4lb"
	"repro/internal/netsim"
	"repro/internal/rules"
)

func tupleFor(i int) netsim.FourTuple {
	return netsim.FourTuple{
		Src: netsim.HostPort{IP: netsim.IP(0x0a000000 + uint32(i)), Port: uint16(30000 + i%1000)},
		Dst: netsim.HostPort{IP: 0x0afe0001, Port: 80},
	}
}

func testTable() (*Table, netsim.IP, []netsim.IP) {
	t := New(0x1234abcd)
	vip := netsim.IP(0x0afe0001)
	insts := []netsim.IP{0x0a010001, 0x0a010002, 0x0a010003, 0x0a010004}
	pool := []Backend{
		{Name: "a", Addr: netsim.HostPort{IP: 0x0a020001, Port: 8080}, Weight: 1},
		{Name: "b", Addr: netsim.HostPort{IP: 0x0a020002, Port: 8080}, Weight: 2},
		{Name: "c", Addr: netsim.HostPort{IP: 0x0a020003, Port: 8080}, Weight: 1},
	}
	t.SetVIP(vip, VIPEntry{Instances: insts, Pool: pool})
	for i, ip := range insts {
		t.RegisterRange(ip, uint16(20000+i*2000), 2000)
	}
	return t, vip, insts
}

// Owner must equal plain rendezvous over the live subset: skipping dead
// picks down the chain is equivalent to never having listed them.
func TestOwnerEqualsRendezvousOverLiveSubset(t *testing.T) {
	tbl, vip, insts := testTable()
	tbl.MarkDead(insts[1])
	tbl.MarkDead(insts[3])
	live := []netsim.IP{insts[0], insts[2]}
	for i := 0; i < 500; i++ {
		ft := tupleFor(i)
		got, ok := tbl.Owner(vip, ft)
		if !ok {
			t.Fatalf("no owner for %v", ft)
		}
		if want := l4lb.Rendezvous(ft, live); got != want {
			t.Fatalf("tuple %d: chain-walk owner %v != rendezvous over live %v", i, got, want)
		}
	}
	// All dead: no owner.
	tbl.MarkDead(insts[0])
	tbl.MarkDead(insts[2])
	if _, ok := tbl.Owner(vip, tupleFor(0)); ok {
		t.Fatal("owner reported with every instance dead")
	}
}

func TestDeadOwnerCandidatesChain(t *testing.T) {
	tbl, vip, _ := testTable()
	var buf []netsim.IP
	// Owner alive: no candidates.
	if c := tbl.DeadOwnerCandidates(vip, tupleFor(7), buf); len(c) != 0 {
		t.Fatalf("candidates with alive owner: %v", c)
	}
	// Kill the first pick for some tuple: exactly that instance becomes
	// the single candidate, and the new owner differs.
	ft := tupleFor(7)
	first, _ := tbl.Owner(vip, ft)
	tbl.MarkDead(first)
	c := tbl.DeadOwnerCandidates(vip, ft, buf)
	if len(c) != 1 || c[0] != first {
		t.Fatalf("candidates = %v, want [%v]", c, first)
	}
	second, ok := tbl.Owner(vip, ft)
	if !ok || second == first {
		t.Fatalf("owner after death = %v ok=%v", second, ok)
	}
	// Kill the second too: chain order preserved.
	tbl.MarkDead(second)
	c = tbl.DeadOwnerCandidates(vip, ft, c)
	if len(c) != 2 || c[0] != first || c[1] != second {
		t.Fatalf("candidates = %v, want [%v %v]", c, first, second)
	}
	// Revive clears.
	tbl.Revive(first)
	if c := tbl.DeadOwnerCandidates(vip, ft, c); len(c) != 0 {
		t.Fatalf("candidates after revive: %v", c)
	}
}

// PreferredPort must decode back to its instance with current=true, land
// in the current epoch's quarter, and go stale (current=false) after a
// bump that changes the epoch's low bits.
func TestPreferredPortDecodeRoundTrip(t *testing.T) {
	tbl, _, insts := testTable()
	for epoch := 0; epoch < 6; epoch++ {
		for i := 0; i < 200; i++ {
			ft := tupleFor(i)
			inst := insts[i%len(insts)]
			port, ok := tbl.PreferredPort(inst, ft)
			if !ok {
				t.Fatalf("no preferred port for %v", inst)
			}
			owner, current, ok := tbl.DecodeCookie(port)
			if !ok || owner != inst || !current {
				t.Fatalf("epoch %d: port %d decoded to owner=%v current=%v ok=%v", epoch, port, owner, current, ok)
			}
			tbl.Bump()
			if _, current, ok := tbl.DecodeCookie(port); !ok || current {
				t.Fatalf("port %d still current after bump (ok=%v)", port, ok)
			}
			// Restore the epoch for the next iteration's expectations.
			tbl.epoch--
		}
		tbl.Bump()
	}
}

func TestDecodeCookieRejectsTailAndForeign(t *testing.T) {
	tbl, _, insts := testTable()
	r, _ := tbl.rangeOf(insts[0])
	quarter := r.Count / 4
	// The range tail beyond the four quarters is sequential-fallback
	// territory — never cookie-coded.
	for off := 4 * quarter; off < r.Count; off++ {
		if _, _, ok := tbl.DecodeCookie(r.Base + off); ok {
			t.Fatalf("tail port %d decoded ok", r.Base+off)
		}
	}
	// Ports outside every range.
	for _, p := range []uint16{0, 80, 19999, 28000, 65535} {
		if _, _, ok := tbl.DecodeCookie(p); ok {
			t.Fatalf("foreign port %d decoded ok", p)
		}
	}
	// A restarted instance re-registering an overlapping range wins over
	// the old registration.
	tbl.RegisterRange(insts[3], r.Base, r.Count)
	owner, _, ok := tbl.DecodeCookie(r.Base)
	if !ok || owner != insts[3] {
		t.Fatalf("overlap decode: owner=%v ok=%v, want %v", owner, ok, insts[3])
	}
}

func TestPoolFromRules(t *testing.T) {
	be := func(n string, ip netsim.IP) rules.Backend {
		return rules.Backend{Name: n, Addr: netsim.HostPort{IP: ip, Port: 8080}}
	}
	split := rules.Rule{
		Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{
			{Backend: be("a", 1), Weight: 1},
			{Backend: be("b", 2), Weight: 3},
		}},
	}
	pool, ok := PoolFromRules([]rules.Rule{split})
	if !ok || len(pool) != 2 || pool[1].Weight != 3 || pool[0].Name != "a" {
		t.Fatalf("simple split not derivable: %v %v", pool, ok)
	}
	// Universal glob is still universal.
	g := split
	g.Match.URLGlob = "*"
	if _, ok := PoolFromRules([]rules.Rule{g}); !ok {
		t.Fatal("universal glob rejected")
	}
	reject := []struct {
		name string
		rs   []rules.Rule
	}{
		{"empty", nil},
		{"two rules", []rules.Rule{split, split}},
		{"url match", func() []rules.Rule { r := split; r.Match.URLGlob = "*.jpg"; return []rules.Rule{r} }()},
		{"header match", func() []rules.Rule { r := split; r.Match.HeaderName = "X-Y"; return []rules.Rule{r} }()},
		{"cookie match", func() []rules.Rule { r := split; r.Match.CookieName = "sid"; return []rules.Rule{r} }()},
		{"least-loaded weight", func() []rules.Rule {
			r := split
			r.Action.Split = []rules.WeightedBackend{{Backend: be("a", 1), Weight: -1}}
			return []rules.Rule{r}
		}()},
		{"sticky table", func() []rules.Rule {
			r := split
			r.Action.Type = rules.ActionTable
			return []rules.Rule{r}
		}()},
	}
	for _, tc := range reject {
		if _, ok := PoolFromRules(tc.rs); ok {
			t.Fatalf("%s: derivable, want rejected", tc.name)
		}
	}
}

func TestDeriveBackendDistributionAndDeterminism(t *testing.T) {
	tbl, vip, _ := testTable()
	counts := map[string]int{}
	const N = 20000
	for i := 0; i < N; i++ {
		b, ok := tbl.DeriveBackend(vip, tupleFor(i))
		if !ok {
			t.Fatal("derivation failed")
		}
		b2, _ := tbl.DeriveBackend(vip, tupleFor(i))
		if b2 != b {
			t.Fatal("derivation not deterministic")
		}
		counts[b.Name]++
	}
	// Weights 1:2:1 — each share within 3 points of expectation.
	for name, want := range map[string]float64{"a": 0.25, "b": 0.5, "c": 0.25} {
		got := float64(counts[name]) / N
		if got < want-0.03 || got > want+0.03 {
			t.Fatalf("backend %s share = %.3f, want ~%.2f", name, got, want)
		}
	}
	if _, ok := tbl.DeriveBackend(netsim.IP(99), tupleFor(0)); ok {
		t.Fatal("unknown VIP derivable")
	}
}

func TestISNKeyStableNonZero(t *testing.T) {
	a, b := New(7), New(7)
	if a.ISNKey() == 0 || a.ISNKey() != b.ISNKey() {
		t.Fatalf("ISNKey = %d / %d", a.ISNKey(), b.ISNKey())
	}
	if New(8).ISNKey() == a.ISNKey() {
		t.Fatal("ISNKey independent of secret")
	}
}

// FuzzCookieDecode: no port, however malformed or stale, may ever decode
// to an unregistered owner, a port outside the owner's range, or a
// cookie-coded slot in the sequential-fallback tail — those are exactly
// the properties the recovery path relies on before trusting a knock.
func FuzzCookieDecode(f *testing.F) {
	f.Add(uint16(20000), uint64(0))
	f.Add(uint16(27999), uint64(3))
	f.Add(uint16(0), uint64(1<<63))
	f.Add(uint16(65535), uint64(42))
	f.Fuzz(func(t *testing.T, port uint16, epoch uint64) {
		tbl, _, insts := testTable()
		tbl.epoch = epoch
		registered := map[netsim.IP]bool{}
		for _, ip := range insts {
			registered[ip] = true
		}
		owner, current, ok := tbl.DecodeCookie(port)
		if !ok {
			if owner != 0 || current {
				t.Fatalf("!ok decode leaked owner=%v current=%v", owner, current)
			}
			return
		}
		if !registered[owner] {
			t.Fatalf("port %d decoded to unregistered owner %v", port, owner)
		}
		r, rok := tbl.rangeOf(owner)
		if !rok {
			t.Fatalf("owner %v has no range", owner)
		}
		off := port - r.Base
		if port < r.Base || uint32(port) >= uint32(r.Base)+uint32(r.Count) {
			t.Fatalf("port %d outside owner range [%d,%d)", port, r.Base, r.Base+r.Count)
		}
		quarter := r.Count / 4
		if off >= 4*quarter {
			t.Fatalf("tail port %d decoded ok", port)
		}
		if current != (off/quarter == uint16(epoch&3)) {
			t.Fatalf("current bit wrong for port %d epoch %d", port, epoch)
		}
	})
}

// FuzzDeriveBackend: whatever the tuple, a successful derivation must
// return a member of the VIP's recorded pool — recovery may never
// install a flow toward a backend the policy does not list.
func FuzzDeriveBackend(f *testing.F) {
	f.Add(uint32(0x0a000001), uint16(31000), uint64(0))
	f.Add(uint32(0), uint16(0), uint64(7))
	f.Add(^uint32(0), ^uint16(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, srcIP uint32, srcPort uint16, epoch uint64) {
		tbl, vip, _ := testTable()
		tbl.epoch = epoch
		e, _ := tbl.VIP(vip)
		inPool := map[Backend]bool{}
		for _, b := range e.Pool {
			inPool[b] = true
		}
		ft := netsim.FourTuple{
			Src: netsim.HostPort{IP: netsim.IP(srcIP), Port: srcPort},
			Dst: netsim.HostPort{IP: vip, Port: 80},
		}
		b, ok := tbl.DeriveBackend(vip, ft)
		if !ok {
			t.Fatal("fully-weighted pool not derivable")
		}
		if !inPool[b] {
			t.Fatalf("derived backend %+v not in pool", b)
		}
		if d := tbl.Draw(ft); d < 0 || d >= 1 {
			t.Fatalf("draw out of range: %v", d)
		}
	})
}

// Rendezvous stability: removing a non-winning instance never changes
// the pick (the property the dead-skip chain walk depends on).
func TestRendezvousRemovalStability(t *testing.T) {
	insts := []netsim.IP{0x0a010001, 0x0a010002, 0x0a010003, 0x0a010004, 0x0a010005}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ft := tupleFor(i)
		win := l4lb.Rendezvous(ft, insts)
		drop := insts[rng.Intn(len(insts))]
		if drop == win {
			continue
		}
		rest := removeIP(append([]netsim.IP(nil), insts...), drop)
		if got := l4lb.Rendezvous(ft, rest); got != win {
			t.Fatalf("pick changed from %v to %v after removing loser %v", win, got, drop)
		}
	}
}

// refTupleHash is the reference tuple hash: FNV-1a byte by byte over the
// 20-byte big-endian encoding (src IP, dst IP, src port, dst port, salt),
// then the splitmix64 finalizer. l4lb.TupleHash is the unrolled form the
// table and the mux share; it must agree bit for bit.
func refTupleHash(ft netsim.FourTuple, salt uint64) uint64 {
	var b [20]byte
	put32 := func(off int, v uint32) {
		b[off] = byte(v >> 24)
		b[off+1] = byte(v >> 16)
		b[off+2] = byte(v >> 8)
		b[off+3] = byte(v)
	}
	put32(0, uint32(ft.Src.IP))
	put32(4, uint32(ft.Dst.IP))
	b[8] = byte(ft.Src.Port >> 8)
	b[9] = byte(ft.Src.Port)
	b[10] = byte(ft.Dst.Port >> 8)
	b[11] = byte(ft.Dst.Port)
	put32(12, uint32(salt>>32))
	put32(16, uint32(salt))
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return refMix64(h)
}

// refMix64 is the splitmix64 finalizer.
func refMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// refRendezvous is highest-random-weight over refTupleHash, first
// candidate winning ties.
func refRendezvous(ft netsim.FourTuple, insts []netsim.IP) netsim.IP {
	var best netsim.IP
	var bestW uint64
	for _, ip := range insts {
		if w := refTupleHash(ft, uint64(ip)); w > bestW || best == 0 {
			best, bestW = ip, w
		}
	}
	return best
}

// TestTupleHashMatchesReference compares the shared tuple hash, the
// rendezvous pick and the table's keyed draws against the byte-loop
// reference on random tuples and salts, salt 0 included.
func TestTupleHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := New(rng.Uint64())
	for i := 0; i < 5000; i++ {
		ft := netsim.FourTuple{
			Src: netsim.HostPort{IP: netsim.IP(rng.Uint32()), Port: uint16(rng.Uint32())},
			Dst: netsim.HostPort{IP: netsim.IP(rng.Uint32()), Port: uint16(rng.Uint32())},
		}
		for _, salt := range []uint64{0, rng.Uint64(), uint64(rng.Uint32()), tbl.secret ^ drawSalt, tbl.secret ^ portSalt} {
			if got, want := l4lb.TupleHash(ft, salt), refTupleHash(ft, salt); got != want {
				t.Fatalf("TupleHash(%v, %#x) = %#x, reference %#x", ft, salt, got, want)
			}
		}
		insts := make([]netsim.IP, 1+rng.Intn(8))
		for k := range insts {
			insts[k] = netsim.IP(rng.Uint32() | 1)
		}
		if got, want := l4lb.Rendezvous(ft, insts), refRendezvous(ft, insts); got != want {
			t.Fatalf("l4lb.Rendezvous(%v, %v) = %v, reference %v", ft, insts, got, want)
		}
		if got, want := tbl.Draw(ft), float64(refTupleHash(ft, tbl.secret^drawSalt)>>11)/(1<<53); got != want {
			t.Fatalf("Draw(%v) = %v, reference %v", ft, got, want)
		}
	}
	if got, want := l4lb.Mix64(tbl.secret^isnSalt), refMix64(tbl.secret^isnSalt); got != want {
		t.Fatalf("Mix64 = %#x, reference %#x", got, want)
	}
}
