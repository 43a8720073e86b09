package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/haproxy"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

func TestAddressPlanIsCollisionFree(t *testing.T) {
	c := cluster.New(1)
	seen := map[netsim.IP]string{}
	record := func(ip netsim.IP, kind string) {
		if prev, ok := seen[ip]; ok {
			t.Fatalf("IP %v assigned to both %s and %s", ip, prev, kind)
		}
		seen[ip] = kind
	}
	c.AddStoreServers(5, memcache.DefaultSimServerConfig())
	for _, s := range c.StoreServers {
		record(s.Host().IP(), "store")
	}
	c.AddYodaN(5, core.DefaultConfig(), tcpstore.DefaultConfig())
	for _, in := range c.Yoda {
		record(in.IP(), "yoda")
	}
	c.AddHAProxyN(3, haproxy.DefaultConfig())
	for _, p := range c.HAProxy {
		record(p.IP(), "haproxy")
	}
	for i := 0; i < 5; i++ {
		b := c.AddBackend(string(rune('a'+i)), nil, httpsim.DefaultServerConfig())
		record(b.Rec.Addr.IP, "backend")
	}
	record(c.AddVIP("s1"), "vip")
	record(c.AddVIP("s2"), "vip")
}

func TestSNATRangesArePartitioned(t *testing.T) {
	c := cluster.New(2)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	cfg := core.DefaultConfig()
	c.AddYodaN(4, cfg, tcpstore.DefaultConfig())
	// Ranges are assigned by the cluster; verify by driving concurrent
	// flows through all instances toward the same backend and checking the
	// backend never sees a tuple collision (which would corrupt a
	// connection). An indirect but end-to-end check: all fetches succeed.
	c.AddBackend("srv", map[string][]byte{"/x": []byte("y")}, httpsim.DefaultServerConfig())
	vip := c.AddVIP("svc")
	c.InstallPolicy(vip, c.SimpleSplitRules("srv"), nil)
	done, errs := 0, 0
	for i := 0; i < 40; i++ {
		cl := c.NewClient(httpsim.DefaultClientConfig())
		cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/x", func(r *httpsim.FetchResult) {
			done++
			if r.Err != nil {
				errs++
			}
		})
	}
	c.Net.RunFor(30 * time.Second)
	if done != 40 || errs != 0 {
		t.Fatalf("done=%d errs=%d", done, errs)
	}
}

// TestSNATBlocksStayInRangeAcrossRestarts restarts instances until the
// fresh SNAT blocks above port 20000 run out: every live incarnation's
// block must stay inside [20000, 65535] and no two live blocks may
// overlap, however many restarts happen.
func TestSNATBlocksStayInRangeAcrossRestarts(t *testing.T) {
	c := cluster.New(4)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	cfg := core.DefaultConfig()
	c.AddYodaN(4, cfg, tcpstore.DefaultConfig())
	for r := 1; r <= 40; r++ {
		c.RestartYoda(r%len(c.Yoda), cfg, tcpstore.DefaultConfig())
		for i, in := range c.Yoda {
			base, count := in.SNATRange()
			if end := int(base) + int(count); base < 20000 || end > 65536 {
				t.Fatalf("restart %d: instance %d block [%d, %d) outside [20000, 65535]", r, i, base, end)
			}
			for j, other := range c.Yoda[:i] {
				ob, oc := other.SNATRange()
				if int(base) < int(ob)+int(oc) && int(ob) < int(base)+int(count) {
					t.Fatalf("restart %d: blocks of instances %d [%d,+%d) and %d [%d,+%d) overlap",
						r, i, base, count, j, ob, oc)
				}
			}
		}
	}
}

func TestResolver(t *testing.T) {
	c := cluster.New(3)
	c.AddBackend("known", nil, httpsim.DefaultServerConfig())
	r := c.Resolver()
	if b, ok := r("known"); !ok || b.Name != "known" {
		t.Fatalf("resolve known: %v %v", b, ok)
	}
	if _, ok := r("unknown"); ok {
		t.Fatal("resolved unknown backend")
	}
}

func TestSimpleSplitRulesPanicsOnUnknown(t *testing.T) {
	c := cluster.New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown backend")
		}
	}()
	c.SimpleSplitRules("ghost")
}

func TestInstallPolicySubset(t *testing.T) {
	c := cluster.New(5)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	c.AddYodaN(3, core.DefaultConfig(), tcpstore.DefaultConfig())
	c.AddBackend("srv", map[string][]byte{"/": []byte("ok")}, httpsim.DefaultServerConfig())
	vip := c.AddVIP("svc")
	subset := c.Yoda[:2]
	c.InstallPolicy(vip, c.SimpleSplitRules("srv"), subset)
	if !c.Yoda[0].HasVIP(vip) || !c.Yoda[1].HasVIP(vip) {
		t.Fatal("subset instances missing rules")
	}
	if c.Yoda[2].HasVIP(vip) {
		t.Fatal("non-assigned instance has rules")
	}
	if got := len(c.L4.Mapping(vip)); got != 2 {
		t.Fatalf("L4 mapping size = %d, want 2", got)
	}
}

func TestKillYoda(t *testing.T) {
	c := cluster.New(6)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	c.AddYodaN(2, core.DefaultConfig(), tcpstore.DefaultConfig())
	inst := c.KillYoda(0)
	if inst.Host().Alive() {
		t.Fatal("killed instance still alive")
	}
	if !c.Yoda[1].Host().Alive() {
		t.Fatal("wrong instance killed")
	}
}

func TestClientsGetDistinctIPs(t *testing.T) {
	c := cluster.New(7)
	seen := map[netsim.IP]bool{}
	for i := 0; i < 300; i++ {
		h := c.ClientHost()
		if seen[h.IP()] {
			t.Fatalf("client IP %v reused", h.IP())
		}
		seen[h.IP()] = true
	}
}
