package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
)

var (
	clientIP = netsim.IPv4(100, 0, 0, 1)
	serverIP = netsim.IPv4(10, 0, 0, 1)
)

// pair wires up a network with one client host and one server host
// listening on port 80, echoing received bytes into a buffer.
type pair struct {
	net    *netsim.Network
	client *netsim.Host
	server *netsim.Host
}

func newPair(seed int64) *pair {
	n := netsim.New(seed)
	return &pair{
		net:    n,
		client: netsim.NewHost(n, clientIP),
		server: netsim.NewHost(n, serverIP),
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	p := newPair(1)
	var serverGot bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData: func(c *Conn, d []byte) {
				serverGot.Write(d)
				c.Write(d) // echo
			},
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, DefaultConfig())

	var clientGot bytes.Buffer
	established := false
	closed := false
	c := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) {
			established = true
			c.Write([]byte("hello world"))
			c.Close()
		},
		OnData:  func(c *Conn, d []byte) { clientGot.Write(d) },
		OnClose: func(c *Conn) { closed = true },
	}, DefaultConfig())

	p.net.RunUntilIdle(10000)
	if !established {
		t.Fatal("client never established")
	}
	if serverGot.String() != "hello world" {
		t.Fatalf("server got %q", serverGot.String())
	}
	if clientGot.String() != "hello world" {
		t.Fatalf("client echo got %q", clientGot.String())
	}
	if !closed {
		t.Fatal("client connection never fully closed")
	}
	if c.State() != StateClosed {
		t.Fatalf("client state = %v", c.State())
	}
}

func TestHandshakeLatency(t *testing.T) {
	p := newPair(1)
	Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	var at time.Duration = -1
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { at = p.net.Now() },
	}, DefaultConfig())
	p.net.RunUntilIdle(100)
	// Client establishes after 1 RTT = 60ms (client<->DC is 30ms one way).
	if at != 60*time.Millisecond {
		t.Fatalf("established at %v, want 60ms", at)
	}
}

func TestLargeTransfer(t *testing.T) {
	p := newPair(2)
	payload := make([]byte, 500*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) {
				c.Write(payload)
				c.Close()
			},
		}
	}, DefaultConfig())
	done := false
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close(); done = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(1_000_000)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", got.Len(), len(payload))
	}
}

func TestTransferWithLoss(t *testing.T) {
	p := newPair(3)
	// Drop 5% of data segments (never control packets, to keep the test fast).
	rng := p.net.Rand()
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		return len(pkt.Payload) > 0 && rng.Float64() < 0.05
	})
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) { c.Write(payload); c.Close() },
		}
	}, DefaultConfig())
	done := false
	cl := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close(); done = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(2_000_000)
	if !done {
		t.Fatalf("lossy transfer did not complete; got %d/%d bytes, client state %v",
			got.Len(), len(payload), cl.State())
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("payload corrupted under loss")
	}
}

func TestRetransmitTiming(t *testing.T) {
	p := newPair(4)
	// Drop the first transmission of data from the server so it must
	// retransmit. First retransmit should occur RTO (300ms) after send.
	dropped := 0
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if len(pkt.Payload) > 0 && pkt.Src.IP == serverIP && dropped == 0 {
			dropped++
			return true
		}
		return false
	})
	var sendTimes []time.Duration
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		if len(ev.Packet.Payload) > 0 && ev.Packet.Src.IP == serverIP {
			sendTimes = append(sendTimes, ev.At)
		}
	})
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnEstablished: func(c *Conn) { c.Write([]byte("x")); c.Close() }}
	}, DefaultConfig())
	var got bytes.Buffer
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close() },
	}, DefaultConfig())
	p.net.RunUntilIdle(10000)
	if got.String() != "x" {
		t.Fatalf("client got %q", got.String())
	}
	// Tracer sees the drop event too (it fires at delivery time for drops),
	// so we need at least two observations; the gap between the first data
	// delivery attempt and the retransmission must be the 300ms base RTO.
	if len(sendTimes) < 2 {
		t.Fatalf("observed %d data deliveries", len(sendTimes))
	}
	gap := sendTimes[1] - sendTimes[0]
	if gap != 300*time.Millisecond {
		t.Fatalf("retransmit gap = %v, want 300ms", gap)
	}
}

func TestRetransmitBackoffDoubles(t *testing.T) {
	p := newPair(5)
	drops := 0
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if len(pkt.Payload) > 0 && pkt.Src.IP == serverIP && drops < 3 {
			drops++
			return true
		}
		return false
	})
	var times []time.Duration
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		if len(ev.Packet.Payload) > 0 && ev.Packet.Src.IP == serverIP {
			times = append(times, ev.At)
		}
	})
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnEstablished: func(c *Conn) { c.Write([]byte("y")); c.Close() }}
	}, DefaultConfig())
	ok := false
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData: func(c *Conn, d []byte) { ok = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(10000)
	if !ok {
		t.Fatal("data never arrived")
	}
	if len(times) < 4 {
		t.Fatalf("observed %d attempts, want 4", len(times))
	}
	g1, g2, g3 := times[1]-times[0], times[2]-times[1], times[3]-times[2]
	if g1 != 300*time.Millisecond || g2 != 600*time.Millisecond || g3 != 1200*time.Millisecond {
		t.Fatalf("gaps = %v %v %v, want 300ms 600ms 1.2s", g1, g2, g3)
	}
}

func TestSynRetransmitAt3s(t *testing.T) {
	p := newPair(6)
	var synTimes []time.Duration
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Packet.Flags.Has(netsim.FlagSYN) && !ev.Packet.Flags.Has(netsim.FlagACK) {
			synTimes = append(synTimes, ev.At)
		}
	})
	first := true
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if pkt.Flags.Has(netsim.FlagSYN) && !pkt.Flags.Has(netsim.FlagACK) && first {
			first = false
			return true
		}
		return false
	})
	Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	est := false
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { est = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(1000)
	if !est {
		t.Fatal("never established")
	}
	if len(synTimes) != 2 {
		t.Fatalf("SYN attempts = %d", len(synTimes))
	}
	if gap := synTimes[1] - synTimes[0]; gap != 3*time.Second {
		t.Fatalf("SYN retransmit gap = %v, want 3s (Ubuntu default)", gap)
	}
}

func TestConnectToClosedPortFails(t *testing.T) {
	p := newPair(7)
	InstallRSTResponder(p.server)
	var failErr error
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 81}, Callbacks{
		OnFail: func(c *Conn, err error) { failErr = err },
	}, DefaultConfig())
	p.net.RunUntilIdle(1000)
	if failErr != ErrReset {
		t.Fatalf("err = %v, want ErrReset", failErr)
	}
}

func TestConnectTimeoutWhenServerDead(t *testing.T) {
	p := newPair(8)
	p.server.Detach()
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	var failErr error
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnFail: func(c *Conn, err error) { failErr = err },
	}, cfg)
	p.net.RunUntilIdle(1000)
	if failErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", failErr)
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(9)
	var srvConn *Conn
	var srvFail error
	Listen(p.server, 80, func(c *Conn) Callbacks {
		srvConn = c
		return Callbacks{OnFail: func(c *Conn, err error) { srvFail = err }}
	}, DefaultConfig())
	var cl *Conn
	cl = Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write([]byte("x")) },
	}, DefaultConfig())
	p.net.RunUntilIdle(100)
	cl.Abort()
	p.net.RunUntilIdle(100)
	if srvFail != ErrReset {
		t.Fatalf("server fail = %v, want ErrReset", srvFail)
	}
	if srvConn.State() != StateClosed {
		t.Fatalf("server state = %v", srvConn.State())
	}
}

func TestBidirectionalSimultaneousData(t *testing.T) {
	p := newPair(10)
	big := func(tag byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = tag
		}
		return b
	}
	var srvGot, cliGot bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) { c.Write(big('s', 50000)); c.Close() },
			OnData:        func(c *Conn, d []byte) { srvGot.Write(d) },
			OnPeerClose:   func(c *Conn) {},
		}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(big('c', 50000)); c.Close() },
		OnData:        func(c *Conn, d []byte) { cliGot.Write(d) },
	}, DefaultConfig())
	p.net.RunUntilIdle(500000)
	if srvGot.Len() != 50000 || cliGot.Len() != 50000 {
		t.Fatalf("srv=%d cli=%d, want 50000 each", srvGot.Len(), cliGot.Len())
	}
}

func TestWriteAfterCloseDiscarded(t *testing.T) {
	p := newPair(11)
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData:      func(c *Conn, d []byte) { got.Write(d) },
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) {
			c.Write([]byte("before"))
			c.Close()
			c.Write([]byte("after"))
		},
	}, DefaultConfig())
	p.net.RunUntilIdle(10000)
	if got.String() != "before" {
		t.Fatalf("server got %q, want only pre-close data", got.String())
	}
}

func TestManySequentialConnections(t *testing.T) {
	p := newPair(12)
	served := 0
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData: func(c *Conn, d []byte) {
				served++
				c.Write(d)
				c.Close()
			},
		}
	}, DefaultConfig())
	const N = 50
	finished := 0
	var dial func(i int)
	dial = func(i int) {
		if i >= N {
			return
		}
		Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
			OnEstablished: func(c *Conn) { c.Write([]byte(fmt.Sprintf("req-%d", i))) },
			OnPeerClose: func(c *Conn) {
				c.Close()
				finished++
				dial(i + 1)
			},
		}, DefaultConfig())
	}
	dial(0)
	p.net.RunUntilIdle(1_000_000)
	if served != N || finished != N {
		t.Fatalf("served=%d finished=%d, want %d", served, finished, N)
	}
}

func TestSeqCompareProperties(t *testing.T) {
	// seqLT must behave like signed distance comparison, handling wraparound.
	f := func(a, b uint32) bool {
		d := int32(a - b)
		if d < 0 {
			return seqLT(a, b) && !seqLT(b, a)
		}
		if d > 0 {
			return !seqLT(a, b) && seqLT(b, a)
		}
		return !seqLT(a, b) && !seqLT(b, a) && seqLEQ(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqWraparoundTransfer(t *testing.T) {
	// Force an ISN near the 32-bit boundary and push enough data across it.
	p := newPair(13)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) {
				// Rewind the server's sequence space to just before wrap.
				c.iss = 0xFFFFF000
				c.sndUna = c.iss
				c.sndNxt = c.iss + 1
				c.bufSeq = c.iss + 1
				c.Write(payload)
				c.Close()
			},
		}
	}, DefaultConfig())
	// The ISN override above happens after SYN-ACK is sent with the real
	// ISN, so instead exercise wraparound purely via seq arithmetic on the
	// client side by dialing normally: the property test above plus a
	// deterministic high-ISN unit test below cover the arithmetic.
	_ = got
	conn := &Conn{cfg: DefaultConfig()}
	conn.iss = 0xFFFFFFF0
	conn.sndUna = conn.iss + 1
	conn.sndNxt = conn.iss + 1
	conn.bufSeq = conn.iss + 1
	if conn.inflight() != 0 {
		t.Fatal("inflight at wrap boundary")
	}
	conn.sndNxt += 0x100 // crosses zero
	if conn.inflight() != 0x100 {
		t.Fatalf("inflight across wrap = %d", conn.inflight())
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{StateSynSent, StateSynReceived, StateEstablished,
		StateFinWait, StateCloseWait, StateLastAck, StateClosed, State(99)}
	for _, s := range states {
		if s.String() == "" {
			t.Errorf("state %d has empty string", int(s))
		}
	}
}

func TestListenerClose(t *testing.T) {
	p := newPair(14)
	l := Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	l.Close()
	cfg := DefaultConfig()
	cfg.MaxRetries = 1
	var failErr error
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnFail: func(c *Conn, err error) { failErr = err },
	}, cfg)
	p.net.RunUntilIdle(1000)
	if failErr == nil {
		t.Fatal("dial to closed listener should fail")
	}
}

func TestDuplicateDataSuppressed(t *testing.T) {
	// Deliver every data packet twice; the application must see each byte once.
	p := newPair(15)
	n := p.net
	orig := make(chan struct{}) // unused; just documents intent
	_ = orig
	var tracer func(ev netsim.TraceEvent)
	dup := map[*netsim.Packet]bool{}
	tracer = func(ev netsim.TraceEvent) {
		pkt := ev.Packet
		if !ev.Dropped && len(pkt.Payload) > 0 && !dup[pkt] {
			clone := pkt.Clone()
			dup[clone] = true
			n.Send(clone)
		}
	}
	n.SetTracer(tracer)
	payload := []byte("exactly-once-delivery-check")
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnEstablished: func(c *Conn) { c.Write(payload); c.Close() }}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close() },
	}, DefaultConfig())
	n.RunUntilIdle(10000)
	if got.String() != string(payload) {
		t.Fatalf("got %q, want %q exactly once", got.String(), payload)
	}
}

// A closed conn may be kept for its stats (httpsim.Server.Conns keeps
// every accepted one); it must not keep its send buffer with it, after
// a close handshake or after an abort.
func TestTeardownReleasesSendBuffer(t *testing.T) {
	p := newPair(3)
	rng := p.net.Rand()
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		return len(pkt.Payload) > 0 && rng.Float64() < 0.05
	})
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var srv []*Conn
	Listen(p.server, 80, func(c *Conn) Callbacks {
		srv = append(srv, c)
		return Callbacks{
			OnEstablished: func(c *Conn) { c.Write(payload); c.Close() },
		}
	}, DefaultConfig())
	var got bytes.Buffer
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close() },
	}, DefaultConfig())
	p.net.RunUntilIdle(2_000_000)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("payload corrupted")
	}
	c := srv[0]
	if c.State() != StateClosed || c.sndBuf != nil || c.sndHead != 0 {
		t.Fatalf("closed conn: state %v, send buffer len %d", c.State(), len(c.sndBuf))
	}
	if c.Retransmits == 0 || c.BytesSent < uint64(len(payload)) {
		t.Fatalf("stats after release: %d retransmits, %d bytes sent", c.Retransmits, c.BytesSent)
	}

	// Abort with most of the payload still unsent.
	p.net.SetDropFunc(nil)
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
	p.net.RunFor(100 * time.Millisecond)
	c = srv[1]
	if len(c.sndBuf) == 0 {
		t.Fatal("the second transfer finished before the abort")
	}
	c.Abort()
	if c.State() != StateClosed || c.sndBuf != nil || c.sndHead != 0 {
		t.Fatalf("aborted conn: state %v, send buffer len %d", c.State(), len(c.sndBuf))
	}
	if c.BytesSent == 0 {
		t.Fatal("aborted conn lost its stats")
	}
	p.net.RunUntilIdle(2_000_000)
}
