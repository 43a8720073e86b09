package netsim

import (
	"testing"
	"time"
)

// BenchmarkNetsimEventLoop measures the steady-state deliver path: one
// pooled packet sent, delivered, and released per iteration. This is the
// per-hop cost every simulated packet pays, so it bounds whole-simulation
// throughput. The acceptance bar for the scheduler rewrite is >= 2x the
// seed heap scheduler's events/sec with 0 allocs/op.
func BenchmarkNetsimEventLoop(b *testing.B) {
	n := New(42)
	sink := NodeFunc(func(pkt *Packet) { n.ReleasePacket(pkt) })
	n.Attach(IP(0x0a000001), sink)
	src := HostPort{IP: 0x0a000002, Port: 1000}
	dst := HostPort{IP: 0x0a000001, Port: 80}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst = src, dst
		pkt.Flags = FlagACK
		n.Send(pkt)
		n.Step()
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "events/sec")
	}
}

// BenchmarkNetsimTimerChurn measures Schedule+Stop of far-future timers,
// the pattern TCP retransmission timers generate: armed on every send,
// cancelled on every ACK, almost never fired.
func BenchmarkNetsimTimerChurn(b *testing.B) {
	n := New(42)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := n.Schedule(300*time.Millisecond, nop)
		t.Stop()
		n.Step() // drain the cancelled event
	}
}

// TestSendDeliverAllocFree locks in the zero-allocation fast path: once
// the pools are warm, a Send plus its delivery must not allocate.
func TestSendDeliverAllocFree(t *testing.T) {
	n := New(7)
	sink := NodeFunc(func(pkt *Packet) { n.ReleasePacket(pkt) })
	n.Attach(IP(0x0a000001), sink)
	src := HostPort{IP: 0x0a000002, Port: 1000}
	dst := HostPort{IP: 0x0a000001, Port: 80}

	// Warm the pools.
	for i := 0; i < 64; i++ {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst = src, dst
		n.Send(pkt)
		n.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst = src, dst
		n.Send(pkt)
		n.Step()
	})
	if allocs != 0 {
		t.Fatalf("Send+deliver allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPacketPoolReuse verifies the release discipline: a released packet
// comes back from AllocPacket zeroed, and double release is inert.
func TestPacketPoolReuse(t *testing.T) {
	n := New(1)
	p := n.AllocPacket()
	p.Payload = []byte("data")
	p.SetOuter(1, 2)
	n.ReleasePacket(p)
	n.ReleasePacket(p) // double release must not corrupt the pool
	q := n.AllocPacket()
	if q != p {
		t.Fatal("pool did not reuse the released packet")
	}
	if q.Payload != nil || q.Outer != nil || !q.Pooled() {
		t.Fatalf("reused packet not reset: %+v", q)
	}
	r := n.AllocPacket()
	if r == p {
		t.Fatal("double release put the same packet on the freelist twice")
	}
}

// TestTimerHandleSurvivesReuse verifies the ABA guard: a Timer handle
// whose event record was recycled into a new event must be inert rather
// than cancel the new event.
func TestTimerHandleSurvivesReuse(t *testing.T) {
	n := New(1)
	fired1, fired2 := false, false
	t1 := n.Schedule(time.Millisecond, func() { fired1 = true })
	n.Step()
	if !fired1 {
		t.Fatal("first timer did not fire")
	}
	// The freed record is recycled for the next schedule.
	n.Schedule(time.Millisecond, func() { fired2 = true })
	t1.Stop() // stale handle: must NOT cancel the second timer
	if t1.Active() {
		t.Fatal("stale handle reports active")
	}
	n.Step()
	if !fired2 {
		t.Fatal("stale Stop cancelled an unrelated recycled event")
	}
}

// TestPendingWithCancelled verifies Pending excludes cancelled events
// without requiring them to be drained first (the Run re-scan fix).
func TestPendingWithCancelled(t *testing.T) {
	n := New(1)
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, n.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if n.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", n.Pending())
	}
	for _, tm := range timers[:4] {
		tm.Stop()
	}
	if n.Pending() != 6 {
		t.Fatalf("Pending after 4 Stops = %d, want 6", n.Pending())
	}
	n.RunUntilIdle(100)
	if n.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", n.Pending())
	}
}

// TestWheelFarTimers exercises the overflow heap: timers far beyond the
// wheel horizon must still fire in order, interleaved with near events.
func TestWheelFarTimers(t *testing.T) {
	n := New(1)
	var got []time.Duration
	delays := []time.Duration{
		500 * time.Millisecond, // beyond the ~134ms horizon: overflow
		10 * time.Second,       // far overflow
		time.Microsecond,       // current slot
		50 * time.Millisecond,  // in the wheel
		200 * time.Millisecond, // overflow, migrates into the wheel
	}
	for _, d := range delays {
		d := d
		n.Schedule(d, func() { got = append(got, d) })
	}
	n.RunUntilIdle(100)
	want := []time.Duration{
		time.Microsecond, 50 * time.Millisecond, 200 * time.Millisecond,
		500 * time.Millisecond, 10 * time.Second,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if n.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want 10s", n.Now())
	}
}

// batchSink is a BatchPortHandler that releases everything it receives,
// so BenchmarkHostDemux measures demux dispatch rather than protocol
// processing.
type batchSink struct{ n *Network }

func (s *batchSink) HandleSegment(p *Packet) { s.n.ReleasePacket(p) }
func (s *batchSink) HandleSegmentBatch(ps []*Packet) {
	for _, p := range ps {
		s.n.ReleasePacket(p)
	}
}

// BenchmarkHostDemux measures the host demux path under bursty arrival:
// packets are sent 64 back-to-back so they ride one train and reach the
// batch demux — one conns probe per run instead of per packet. bench.sh
// records this as host_demux_ns_op.
func BenchmarkHostDemux(b *testing.B) {
	n := New(42)
	h := NewHost(n, IPv4(10, 0, 0, 2))
	src := HostPort{IP: IPv4(10, 0, 0, 1), Port: 1000}
	h.Register(80, src, &batchSink{n: n})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := n.AllocPacket()
		pkt.Src = src
		pkt.Dst = HostPort{IP: h.IP(), Port: 80}
		pkt.Flags = FlagACK
		n.Send(pkt)
		if i&63 == 63 {
			n.RunUntilIdle(1 << 16)
		}
	}
	n.RunUntilIdle(1 << 16)
}

// BenchmarkHostAllocPort measures ephemeral port allocation against a
// large population of live connections. The former implementation
// scanned every established connection per candidate port, so
// allocation degraded linearly with connection count — with hundreds
// of thousands of conns on one client host it dominated flow setup. The per-port refcount makes it O(1) regardless of population.
func BenchmarkHostAllocPort(b *testing.B) {
	n := New(42)
	h := NewHost(n, IPv4(10, 0, 0, 2))
	remote := HostPort{IP: IPv4(10, 0, 0, 1), Port: 80}
	sink := PortHandlerFunc(func(pkt *Packet) {})
	for i := 0; i < 8192; i++ {
		h.Register(h.AllocPort(), remote, sink)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := h.AllocPort()
		h.Register(p, remote, sink)
		h.Unregister(p, remote)
	}
}
