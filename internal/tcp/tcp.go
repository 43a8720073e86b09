// Package tcp implements a userspace TCP endpoint on top of the netsim
// packet network: three-way handshake, cumulative acknowledgments,
// out-of-order reassembly, retransmission with exponential backoff, slow
// start / congestion avoidance, and FIN/RST teardown.
//
// It exists because Yoda's whole premise is packet-level: the load
// balancer hand-crafts segments and rewrites sequence numbers, so the
// clients and backend servers it talks to must run a real TCP state
// machine for the recovery experiments to mean anything. The
// implementation favours clarity over completeness (no SACK, no window
// scaling; RFC 1122 delayed ACKs and GSO-style segment trains are
// opt-in via Config) but is faithful where the paper depends on
// behaviour: retransmission timing (first data retransmit at the base
// RTO, doubling thereafter; SYN retransmit at 3 s as on Ubuntu) and
// duplicate-segment suppression at the receiver.
package tcp

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Config carries the tunables of an endpoint. The zero value is not
// usable; call DefaultConfig.
type Config struct {
	MSS             int           // maximum segment payload bytes
	InitialCwnd     int           // initial congestion window, in segments
	RTO             time.Duration // base retransmission timeout for data
	SynRTO          time.Duration // retransmission timeout for SYN / SYN-ACK
	MaxRTO          time.Duration // backoff ceiling
	MaxRetries      int           // per-segment retransmit budget before giving up
	ReceiveWindow   uint32        // advertised receive window, bytes
	InitialSsthresh uint32        // slow-start threshold, bytes
	// ISNKey, when non-zero, makes the endpoint derive its initial send
	// sequence from a keyed hash of the connection tuple instead of the
	// shard RNG (see DeterministicISN). Yoda's hybrid recovery mode sets
	// this on backend servers so a recovering instance can re-derive the
	// backend ISN without a store read. Zero keeps the RNG draw, so
	// existing seeds and figures are untouched.
	ISNKey uint64
	// IdleProbe, when non-zero, makes an established connection emit a
	// bare ACK (seq=sndNxt, ack=rcvNxt) whenever it has been idle with no
	// unacknowledged data for this long — modelling RFC 1122 TCP
	// keepalive probes. Hybrid-recovery testbeds enable it on clients so
	// a flow whose response was lost with a failed LB instance still
	// produces client-side packets for the successor to recover from.
	// Zero (the default) disables it entirely.
	IdleProbe time.Duration
	// DelayedAck enables RFC 1122 §4.2.3.2 delayed acknowledgments (Tier
	// B coalescing, see DESIGN.md §14): an in-order data segment defers
	// its ACK until a second segment arrives, the AckDelay timer fires,
	// or outgoing data piggybacks it. Out-of-order and duplicate
	// segments, FINs, and PSH boundaries are always ACKed immediately, so
	// retransmit-recovery timing and request/response latency are
	// unchanged. Off (the default) preserves ACK-every-segment behavior
	// bit for bit.
	DelayedAck bool
	// AckDelay caps how long a deferred ACK may wait. Zero means
	// DefaultAckDelay. Only meaningful with DelayedAck.
	AckDelay time.Duration
	// GSOSegs, when > 1, lets trySend emit segment trains of up to
	// GSOSegs*MSS payload bytes in one packet (GSO-style: one event-loop
	// trip carries what would have been GSOSegs wire segments).
	// Congestion and retransmission accounting are byte-denominated and
	// unchanged; retransmits stay single-MSS. 0 or 1 disables trains.
	GSOSegs int
}

// DefaultAckDelay is the deferred-ACK timer used when Config.DelayedAck
// is set and AckDelay is zero — 40ms, the common Linux default, well
// under the 500ms RFC 1122 ceiling and the testbed's 300ms RTO.
const DefaultAckDelay = 40 * time.Millisecond

// DefaultConfig returns the configuration used across the testbed: MSS
// 1460, IW10, 300ms base RTO (matching the paper's observed 300/600ms
// retransmits), 3s SYN timeout (Ubuntu's default per §4.2).
func DefaultConfig() Config {
	return Config{
		MSS:             1460,
		InitialCwnd:     10,
		RTO:             300 * time.Millisecond,
		SynRTO:          3 * time.Second,
		MaxRTO:          60 * time.Second,
		MaxRetries:      8,
		ReceiveWindow:   1 << 20,
		InitialSsthresh: 1 << 20,
	}
}

// State is a TCP connection state.
type State int

// Connection states. Only the states the simulator distinguishes are
// modelled; TIME_WAIT is collapsed into Closed since the simulated port
// allocator never reuses a tuple while packets are in flight.
const (
	StateSynSent State = iota
	StateSynReceived
	StateEstablished
	StateFinWait   // we sent FIN, waiting for its ACK (and possibly peer FIN)
	StateCloseWait // peer sent FIN, we have not closed yet
	StateLastAck   // peer closed, our FIN in flight
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateCloseWait:
		return "CLOSE_WAIT"
	case StateLastAck:
		return "LAST_ACK"
	case StateClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors reported through Callbacks.OnFail.
var (
	ErrReset   = errors.New("tcp: connection reset by peer")
	ErrTimeout = errors.New("tcp: retransmission timeout")
)

// Callbacks notify the application of connection events. Any field may be
// nil. Callbacks run inside the netsim event loop and must not block.
type Callbacks struct {
	OnEstablished func(c *Conn)
	OnData        func(c *Conn, data []byte)
	OnPeerClose   func(c *Conn) // peer's FIN arrived; data delivery is complete
	OnClose       func(c *Conn) // connection fully closed in both directions
	OnFail        func(c *Conn, err error)
}

// DeterministicISN derives an initial send sequence number from a secret
// key and the connection tuple (FNV-1a over the endpoint encoding, then a
// splitmix64-style finalizer). Any party holding the key can recompute
// the ISN a (local, remote) endpoint chose — the SYN-cookie-style trick
// Yoda's hybrid recovery uses to reconstruct the backend-side sequence
// translation without a store read.
func DeterministicISN(key uint64, local, remote netsim.HostPort) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (key >> (8 * i)) & 0xff
		h *= prime64
	}
	mix := func(hp netsim.HostPort) {
		ip := uint32(hp.IP)
		h ^= uint64(ip >> 24 & 0xff)
		h *= prime64
		h ^= uint64(ip >> 16 & 0xff)
		h *= prime64
		h ^= uint64(ip >> 8 & 0xff)
		h *= prime64
		h ^= uint64(ip & 0xff)
		h *= prime64
		h ^= uint64(hp.Port >> 8)
		h *= prime64
		h ^= uint64(hp.Port & 0xff)
		h *= prime64
	}
	mix(local)
	mix(remote)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return uint32(h ^ (h >> 32))
}

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// reasmSeg is an out-of-order segment parked for reassembly. data is a
// read-only reference into the sender's send buffer (zero-copy). That is
// safe because a parked segment is by definition unacknowledged, and the
// sender never overwrites bytes the cumulative ACK has not passed: the
// send buffer only rewinds once every transmitted byte is acked, which
// cannot happen while this segment sits in the reassembly queue.
type reasmSeg struct {
	seq  uint32
	data []byte
	fin  bool
}

// rtxBuf tracks a pooled buffer holding a retransmitted segment's
// payload copy. It is returned to the network's buffer pool once the
// cumulative ACK passes end: at that point the receiver has consumed the
// bytes and any still-in-flight duplicate will be trimmed by sequence
// number without its content being read.
type rtxBuf struct {
	end uint32 // sequence number just past the copied payload
	buf []byte
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	host *netsim.Host
	net  *netsim.Network
	// rng is the owning shard's deterministic RNG, cached at construction
	// so draws never reach through Network.Rand on a hot path and every
	// draw is attributable to the shard the connection lives on.
	rng    *rand.Rand
	cfg    Config
	cb     Callbacks
	local  netsim.HostPort
	remote netsim.HostPort

	state State

	// Send side.
	iss    uint32 // initial send sequence
	sndUna uint32 // oldest unacknowledged
	sndNxt uint32 // next to send
	// sndBuf holds unsent+unacked payload; live bytes are
	// sndBuf[sndHead:], and sndBuf[sndHead] is at seq bufSeq. The head
	// index (instead of re-slicing forward) lets the buffer reset to the
	// array start once fully acknowledged, so steady-state request/reply
	// traffic reuses one backing array instead of reallocating per Write.
	sndBuf    []byte
	sndHead   int
	bufSeq    uint32 // sequence number of sndBuf[sndHead]
	peerWnd   uint32
	cwnd      uint32
	ssthresh  uint32
	finQueued bool
	finSent   bool
	finSeq    uint32

	// Receive side.
	rcvNxt  uint32
	peerFin bool // peer's FIN has been processed
	reasm   []reasmSeg

	// Retransmission.
	rtxTimer   netsim.Timer
	rtxBackoff int
	rtxFn      func()   // c.onRtxTimeout, bound once to avoid per-arm allocation
	rtxBufs    []rtxBuf // pooled copies backing in-flight retransmits

	// Idle keepalive probing (Config.IdleProbe > 0 only).
	probeTimer netsim.Timer
	probeFn    func() // c.onProbeTimeout, bound once

	// Delayed acknowledgments (Config.DelayedAck only). delackHeld counts
	// ACKs deferred since the last one actually sent; a segment arriving
	// with one already held forces the every-2nd-segment immediate ACK.
	delackTimer netsim.Timer
	delackFn    func() // c.onDelackTimeout, bound once
	delackHeld  int

	// Stats, exported for tests and experiments.
	Retransmits int
	BytesSent   uint64
	BytesRecv   uint64
	// AcksElided counts ACKs that never hit the wire because a later ACK,
	// a data segment, or a FIN carried the acknowledgment instead.
	AcksElided int
	// GSOTrainsSent counts data packets carrying more than one MSS of
	// payload (Config.GSOSegs > 1 only).
	GSOTrainsSent int
}

// Dial opens an active connection from an ephemeral port on h to remote.
func Dial(h *netsim.Host, remote netsim.HostPort, cb Callbacks, cfg Config) *Conn {
	return DialFrom(h, h.AllocPort(), remote, cb, cfg)
}

// DialFrom opens an active connection from the given local port.
func DialFrom(h *netsim.Host, localPort uint16, remote netsim.HostPort, cb Callbacks, cfg Config) *Conn {
	c := newConn(h, netsim.HostPort{IP: h.IP(), Port: localPort}, remote, cb, cfg)
	c.state = StateSynSent
	if cfg.ISNKey != 0 {
		c.iss = DeterministicISN(cfg.ISNKey, c.local, c.remote)
	} else {
		c.iss = c.rng.Uint32()
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.bufSeq = c.iss + 1
	h.Register(localPort, remote, c)
	c.sendSegment(netsim.FlagSYN, c.iss, 0, nil)
	c.armRtx(c.cfg.SynRTO)
	return c
}

func newConn(h *netsim.Host, local, remote netsim.HostPort, cb Callbacks, cfg Config) *Conn {
	c := &Conn{
		host:     h,
		net:      h.Network(),
		rng:      h.Network().Rand(),
		cfg:      cfg,
		cb:       cb,
		local:    local,
		remote:   remote,
		peerWnd:  cfg.ReceiveWindow,
		cwnd:     uint32(cfg.InitialCwnd * cfg.MSS),
		ssthresh: cfg.InitialSsthresh,
	}
	c.rtxFn = c.onRtxTimeout
	if cfg.IdleProbe > 0 {
		c.probeFn = c.onProbeTimeout
	}
	if cfg.DelayedAck {
		c.delackFn = c.onDelackTimeout
	}
	return c
}

// armProbe starts the idle-probe timer once the connection establishes.
func (c *Conn) armProbe() {
	if c.probeFn == nil || c.probeTimer.Active() {
		return
	}
	c.probeTimer = c.net.Schedule(c.cfg.IdleProbe, c.probeFn)
}

// onProbeTimeout emits a bare ACK if the connection has been idle —
// established, nothing in flight, nothing buffered — and re-arms. The
// probe elicits no reply from a healthy peer (pure ACKs are not ACKed)
// but gives a recovering load balancer a client-side packet to act on.
func (c *Conn) onProbeTimeout() {
	c.probeTimer = netsim.Timer{}
	if c.state == StateClosed {
		return
	}
	if c.state == StateEstablished && c.inflight() == 0 && c.sndHead == len(c.sndBuf) && !c.finQueued {
		// sendAck, not sendSegment: the probe is a bare ACK, so it also
		// satisfies any deferred delayed ACK instead of duplicating it.
		c.sendAck()
	}
	c.probeTimer = c.net.Schedule(c.cfg.IdleProbe, c.probeFn)
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() netsim.HostPort { return c.local }

// RemoteAddr returns the remote endpoint.
func (c *Conn) RemoteAddr() netsim.HostPort { return c.remote }

// ISN returns the initial send sequence number (used by tests).
func (c *Conn) ISN() uint32 { return c.iss }

// Write queues payload for transmission. It is an error to write after
// Close or on a failed connection; the data is silently discarded then.
func (c *Conn) Write(data []byte) {
	if c.state == StateClosed || c.finQueued || len(data) == 0 {
		return
	}
	c.sndBuf = append(c.sndBuf, data...)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// Close queues a FIN after any buffered data. Data already written is
// still delivered.
func (c *Conn) Close() {
	if c.state == StateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(netsim.FlagRST, c.sndNxt, c.rcvNxt, nil)
	c.teardown()
}

// teardown releases resources without notifying the peer.
func (c *Conn) teardown() {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.rtxTimer.Stop()
	c.probeTimer.Stop()
	c.delackTimer.Stop()
	// rtxBufs are NOT released here: retransmitted packets referencing
	// them may still be in flight, and the conn going away does not stop
	// their delivery. They are garbage-collected with the conn. The send
	// buffer is released: in-flight first transmissions hold their own
	// sub-slices of it, and nothing reads it once the conn is closed, so
	// a closed conn kept for its stats does not keep its payload alive.
	c.sndBuf, c.sndHead = nil, 0
	c.host.Unregister(c.local.Port, c.remote)
}

func (c *Conn) fail(err error) {
	if c.state == StateClosed {
		return
	}
	c.teardown()
	if c.cb.OnFail != nil {
		c.cb.OnFail(c, err)
	}
}

func (c *Conn) sendSegment(flags netsim.TCPFlags, seq, ack uint32, payload []byte) {
	if !c.host.Alive() {
		return // a failed machine transmits nothing
	}
	pkt := c.net.AllocPacket()
	pkt.Src, pkt.Dst = c.local, c.remote
	pkt.Flags, pkt.Seq, pkt.Ack = flags, seq, ack
	pkt.Window = c.cfg.ReceiveWindow
	pkt.Payload = payload
	if len(payload) > 0 {
		c.BytesSent += uint64(len(payload))
	}
	c.net.Send(pkt)
}

// inflight returns bytes sent but not yet acknowledged.
func (c *Conn) inflight() uint32 { return c.sndNxt - c.sndUna }

// trySend transmits as much buffered data (and the queued FIN) as the
// congestion and peer windows allow.
func (c *Conn) trySend() {
	wnd := c.cwnd
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	// GSO-style segment trains: one packet may carry up to GSOSegs*MSS
	// bytes, cutting event-loop trips per buffer flush by the same
	// factor. Sequence numbers, cwnd, and rtx stay byte-denominated, so
	// the receiver and recovery paths see ordinary (large) segments.
	maxSeg := c.cfg.MSS
	if c.cfg.GSOSegs > 1 {
		maxSeg = c.cfg.MSS * c.cfg.GSOSegs
	}
	for {
		// Bytes of sndBuf not yet transmitted start at offset sndNxt-bufSeq
		// past the head.
		rel := int(c.sndNxt - c.bufSeq)
		off := c.sndHead + rel
		if rel < 0 || off > len(c.sndBuf) {
			// FIN-only position or buffer fully streamed.
			off = len(c.sndBuf)
		}
		avail := len(c.sndBuf) - off
		if avail > 0 {
			if c.inflight() >= wnd {
				return
			}
			n := maxSeg
			if n > avail {
				n = avail
			}
			if room := int(wnd - c.inflight()); n > room {
				n = room
			}
			if n <= 0 {
				return
			}
			if n > c.cfg.MSS {
				c.GSOTrainsSent++
			}
			// Zero-copy: hand out a capacity-capped sub-slice of sndBuf.
			// Safe because the head only advances on ACK, appends land past
			// the high-water mark, and the buffer resets to the array start
			// only once every transmitted byte is acknowledged — at which
			// point any slice still in flight is a duplicate the receiver
			// trims without reading (see processAck).
			seg := c.sndBuf[off : off+n : off+n]
			flags := netsim.FlagACK
			if off+n == len(c.sndBuf) {
				flags |= netsim.FlagPSH
			}
			c.sendSegment(flags, c.sndNxt, c.rcvNxt, seg)
			c.sndNxt += uint32(n)
			c.ensureRtx()
			continue
		}
		// All payload streamed; maybe send FIN.
		if c.finQueued && !c.finSent {
			c.finSent = true
			c.finSeq = c.sndNxt
			c.sendSegment(netsim.FlagFIN|netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
			c.sndNxt++
			if c.state == StateEstablished {
				c.state = StateFinWait
			} else if c.state == StateCloseWait {
				c.state = StateLastAck
			}
			c.ensureRtx()
		}
		return
	}
}

func (c *Conn) ensureRtx() {
	if !c.rtxTimer.Active() && c.inflight() > 0 {
		c.armRtx(c.currentRTO())
	}
}

func (c *Conn) currentRTO() time.Duration {
	rto := c.cfg.RTO
	for i := 0; i < c.rtxBackoff; i++ {
		rto *= 2
		if rto >= c.cfg.MaxRTO {
			return c.cfg.MaxRTO
		}
	}
	return rto
}

func (c *Conn) armRtx(d time.Duration) {
	c.rtxTimer.Stop()
	c.rtxTimer = c.net.Schedule(d, c.rtxFn)
}

func (c *Conn) onRtxTimeout() {
	c.rtxTimer = netsim.Timer{}
	if c.state == StateClosed {
		return
	}
	if c.rtxBackoff >= c.cfg.MaxRetries {
		c.fail(ErrTimeout)
		return
	}
	c.rtxBackoff++
	c.Retransmits++
	switch c.state {
	case StateSynSent:
		c.sendSegment(netsim.FlagSYN, c.iss, 0, nil)
		c.armRtx(c.cfg.SynRTO) // Linux keeps the SYN timer fixed-ish; good enough
		return
	case StateSynReceived:
		c.sendSegment(netsim.FlagSYN|netsim.FlagACK, c.iss, c.rcvNxt, nil)
		c.armRtx(c.cfg.SynRTO)
		return
	}
	// Retransmit the oldest unacked segment; classic multiplicative decrease.
	c.ssthresh = c.inflight() / 2
	if min := uint32(2 * c.cfg.MSS); c.ssthresh < min {
		c.ssthresh = min
	}
	c.cwnd = uint32(c.cfg.MSS)
	c.retransmitOldest()
	c.armRtx(c.currentRTO())
}

func (c *Conn) retransmitOldest() {
	if c.finSent && c.sndUna == c.finSeq {
		c.sendSegment(netsim.FlagFIN|netsim.FlagACK, c.finSeq, c.rcvNxt, nil)
		return
	}
	rel := int(c.sndUna - c.bufSeq)
	off := c.sndHead + rel
	if rel < 0 || off >= len(c.sndBuf) {
		return
	}
	n := c.cfg.MSS
	if n > len(c.sndBuf)-off {
		n = len(c.sndBuf) - off
	}
	// Copy-on-retransmit: retransmits get a private pooled copy so the
	// zero-copy invariant (in-flight slices reference sndBuf strictly
	// below the append watermark) only has to hold for first
	// transmissions. processAck recycles the copy once the cumulative
	// ACK covers it.
	seg := c.net.AllocBuf(n)
	copy(seg, c.sndBuf[off:off+n])
	c.rtxBufs = append(c.rtxBufs, rtxBuf{end: c.sndUna + uint32(n), buf: seg})
	c.sendSegment(netsim.FlagACK|netsim.FlagPSH, c.sndUna, c.rcvNxt, seg)
}

// HandleSegment implements netsim.PortHandler. The connection is the
// packet's terminal consumer: any payload bytes that outlive this call
// (reassembly queue, application callbacks) are either referenced
// independently of the packet struct or copied by the application, so
// the struct is released back to the pool on return.
func (c *Conn) HandleSegment(pkt *netsim.Packet) {
	c.handleSegment(pkt)
	c.net.ReleasePacket(pkt)
}

// HandleSegmentBatch implements netsim.BatchPortHandler: the host hands
// over a run of same-connection segments in one call. Runs of bare
// cumulative ACKs — the dominant receive shape for a bulk sender — are
// processed as one applyAck at the run's maximum in-range ACK, with
// cwnd growth replayed per advancing segment and one rtx-timer
// reconcile instead of a stop/arm pair per segment. Everything else
// replays the scalar per-segment path, so wire behavior is identical
// to per-packet delivery by construction (pinned by
// FuzzBatchDispatchDifferential). If the connection closes itself
// mid-run, the remainder re-enters host demux exactly as scalar
// delivery would have routed it (listener RST responder or default).
func (c *Conn) HandleSegmentBatch(pkts []*netsim.Packet) {
	for i := 0; i < len(pkts); i++ {
		if c.state == StateClosed {
			for _, p := range pkts[i:] {
				c.host.Demux(p)
			}
			return
		}
		if j := c.bareAckRunEnd(pkts, i); j-i >= 2 {
			c.processAckRun(pkts[i:j])
			for _, p := range pkts[i:j] {
				c.net.ReleasePacket(p)
			}
			i = j - 1
			continue
		}
		c.handleSegment(pkts[i])
		c.net.ReleasePacket(pkts[i])
	}
}

// bareAckRunEnd returns j such that pkts[i:j] is the longest run
// starting at i that the cumulative-ACK fast path may process as one
// unit. The gates guarantee the scalar path for each such segment is
// exactly {peerWnd update, processAck}: established with no FIN in
// either direction (maybeFinish is a no-op), and no unsent payload or
// queued FIN (trySend cannot emit). All gate inputs are invariant
// across a run of such segments — no payload means no callbacks, so no
// Write/Close can run — so checking once up front is sound.
func (c *Conn) bareAckRunEnd(pkts []*netsim.Packet, i int) int {
	if c.state != StateEstablished || c.finQueued || c.finSent || c.peerFin {
		return i
	}
	rel := int(c.sndNxt - c.bufSeq)
	off := c.sndHead + rel
	if rel < 0 || off > len(c.sndBuf) {
		off = len(c.sndBuf)
	}
	if len(c.sndBuf)-off > 0 {
		return i // unsent payload: scalar trySend would transmit
	}
	j := i
	for j < len(pkts) && pkts[j].Flags == netsim.FlagACK && len(pkts[j].Payload) == 0 {
		j++
	}
	return j
}

// processAckRun applies a run of bare ACKs cumulatively: every
// segment's window update lands (last writer wins, as scalar), the
// maximum in-range cumulative ACK is applied once with cwnd growth
// replayed per advancing segment, and duplicate or out-of-range ACKs
// are skipped exactly as processAck would have skipped them.
func (c *Conn) processAckRun(pkts []*netsim.Packet) {
	cur := c.sndUna
	advances := 0
	for _, p := range pkts {
		c.peerWnd = p.Window
		if c.peerWnd == 0 {
			c.peerWnd = 1 // never wedge: simulate persist probes trivially
		}
		if seqLT(cur, p.Ack) && seqLEQ(p.Ack, c.sndNxt) {
			cur = p.Ack
			advances++
		}
	}
	if advances > 0 {
		c.applyAck(cur, advances)
	}
}

func (c *Conn) handleSegment(pkt *netsim.Packet) {
	if c.state == StateClosed {
		return
	}
	if pkt.Flags.Has(netsim.FlagRST) {
		c.fail(ErrReset)
		return
	}
	c.peerWnd = pkt.Window
	if c.peerWnd == 0 {
		c.peerWnd = 1 // never wedge: simulate persist probes trivially
	}
	switch c.state {
	case StateSynSent:
		c.handleSynSent(pkt)
	case StateSynReceived:
		c.handleSynReceived(pkt)
	default:
		c.handleEstablished(pkt)
	}
}

func (c *Conn) handleSynSent(pkt *netsim.Packet) {
	if !pkt.Flags.Has(netsim.FlagSYN | netsim.FlagACK) {
		return
	}
	if pkt.Ack != c.iss+1 {
		return // stale
	}
	c.rcvNxt = pkt.Seq + 1
	c.sndUna = pkt.Ack
	c.rtxBackoff = 0
	c.rtxTimer.Stop()
	c.state = StateEstablished
	c.armProbe()
	c.sendSegment(netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
	if c.cb.OnEstablished != nil {
		c.cb.OnEstablished(c)
	}
	c.trySend()
}

func (c *Conn) handleSynReceived(pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagSYN) && !pkt.Flags.Has(netsim.FlagACK) {
		// Duplicate SYN: retransmit our SYN-ACK.
		c.sendSegment(netsim.FlagSYN|netsim.FlagACK, c.iss, c.rcvNxt, nil)
		return
	}
	if !pkt.Flags.Has(netsim.FlagACK) || pkt.Ack != c.iss+1 {
		return
	}
	c.sndUna = pkt.Ack
	c.rtxBackoff = 0
	c.rtxTimer.Stop()
	c.state = StateEstablished
	c.armProbe()
	if c.cb.OnEstablished != nil {
		c.cb.OnEstablished(c)
	}
	// The handshake ACK may carry data (common when the client sends the
	// HTTP request immediately).
	if len(pkt.Payload) > 0 || pkt.Flags.Has(netsim.FlagFIN) {
		c.handleEstablished(pkt)
		return
	}
	c.trySend()
}

func (c *Conn) handleEstablished(pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagACK) {
		c.processAck(pkt.Ack)
		if c.state == StateClosed {
			return
		}
	}
	progressed := false
	hasData := len(pkt.Payload) > 0 || pkt.Flags.Has(netsim.FlagFIN)
	sentBefore := c.sndNxt
	if hasData {
		progressed = c.processData(pkt)
	}
	if progressed || hasData {
		// Acknowledge received data (also re-ACKs duplicates). With
		// DelayedAck the first in-order segment of a pair is deferred;
		// anything that affects sender-side recovery or latency — dup or
		// out-of-order segments (dup-ACK for fast recovery), FINs, PSH
		// boundaries — still ACKs immediately, as does the 2nd held
		// segment per RFC 1122. Data the application echoed from inside
		// OnData already carried ack=rcvNxt, so it IS the acknowledgment.
		switch {
		case c.cfg.DelayedAck && c.sndNxt != sentBefore:
			c.AcksElided += c.delackHeld + 1
			c.delackHeld = 0
			c.delackTimer.Stop()
		case !c.cfg.DelayedAck || !progressed || c.delackHeld > 0 ||
			pkt.Flags.Has(netsim.FlagFIN) || c.peerFin || pkt.Flags.Has(netsim.FlagPSH):
			c.sendAck()
		default:
			c.deferAck()
		}
	}
	c.maybeFinish()
	if c.state != StateClosed {
		before := c.sndNxt
		c.trySend()
		if c.sndNxt != before && c.delackHeld > 0 {
			// The data (or FIN) just sent carried ack=rcvNxt: the deferred
			// ACK piggybacked and will never need its own packet.
			c.AcksElided += c.delackHeld
			c.delackHeld = 0
			c.delackTimer.Stop()
		}
	}
}

// sendAck emits a bare ACK for everything received, counting any
// deferred ACKs it subsumes as elided. With DelayedAck off this is
// exactly the pre-delack immediate ACK.
func (c *Conn) sendAck() {
	c.AcksElided += c.delackHeld
	c.delackHeld = 0
	c.delackTimer.Stop()
	c.sendSegment(netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
}

// deferAck holds the ACK for the segment just ingested, arming the
// delay timer if it is not already running.
func (c *Conn) deferAck() {
	c.delackHeld++
	if !c.delackTimer.Active() {
		d := c.cfg.AckDelay
		if d <= 0 {
			d = DefaultAckDelay
		}
		c.delackTimer = c.net.Schedule(d, c.delackFn)
	}
}

// onDelackTimeout flushes a deferred ACK that nothing piggybacked or
// subsumed within AckDelay. The flush is a real ACK on the wire, so it
// is not counted as elided.
func (c *Conn) onDelackTimeout() {
	c.delackTimer = netsim.Timer{}
	if c.state == StateClosed || c.delackHeld == 0 {
		return
	}
	c.delackHeld--
	c.sendAck()
}

func (c *Conn) processAck(ack uint32) {
	if !seqLT(c.sndUna, ack) || !seqLEQ(ack, c.sndNxt) {
		return // duplicate or out-of-range
	}
	c.applyAck(ack, 1)
}

// applyAck advances sndUna to ack — already validated as in-range and
// advancing — releasing covered buffer bytes and reconciling the rtx
// timer once. growths is the number of advancing ACKs this cumulative
// apply stands for: the congestion window grows once per original ACK
// (the formula depends only on the evolving cwnd, so replaying it
// growths times yields exactly the scalar per-segment result).
func (c *Conn) applyAck(ack uint32, growths int) {
	acked := ack - c.sndUna
	c.sndUna = ack
	c.rtxBackoff = 0
	// Release acknowledged bytes from the buffer. FIN occupies sequence
	// space but no buffer space.
	dataAcked := acked
	if c.finSent && seqLT(c.finSeq, ack) {
		dataAcked--
	}
	live := len(c.sndBuf) - c.sndHead
	drop := int(c.sndUna - c.bufSeq)
	if c.finSent && seqLT(c.finSeq, c.sndUna) {
		drop = live
	}
	if drop > live {
		drop = live
	}
	if drop > 0 {
		c.sndHead += drop
		c.bufSeq += uint32(drop)
	}
	if c.sndHead == len(c.sndBuf) && c.sndHead > 0 {
		// Every buffered byte is acknowledged: rewind to the array start so
		// the next Write reuses the capacity instead of growing past the
		// high-water mark. Any first-transmission slice still in flight is
		// now entirely below the receiver's rcvNxt (cumulative ACKs imply
		// delivery), so its bytes are trimmed without being read even if a
		// later Write overwrites them.
		c.sndBuf = c.sndBuf[:0]
		c.sndHead = 0
	}
	_ = dataAcked
	// Recycle retransmit copies the cumulative ACK now covers. Any
	// still-in-flight duplicate referencing one is entirely below the
	// receiver's rcvNxt and gets trimmed without its bytes being read.
	if len(c.rtxBufs) > 0 {
		i := 0
		for i < len(c.rtxBufs) && seqLEQ(c.rtxBufs[i].end, c.sndUna) {
			c.net.ReleaseBuf(c.rtxBufs[i].buf)
			c.rtxBufs[i].buf = nil
			i++
		}
		if i > 0 {
			c.rtxBufs = append(c.rtxBufs[:0], c.rtxBufs[i:]...)
		}
	}
	// Congestion window growth: slow start below ssthresh, else additive.
	for i := 0; i < growths; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd += uint32(c.cfg.MSS)
		} else {
			c.cwnd += uint32(c.cfg.MSS) * uint32(c.cfg.MSS) / c.cwnd
		}
	}
	c.rtxTimer.Stop()
	if c.inflight() > 0 {
		c.armRtx(c.currentRTO())
	}
}

// processData ingests payload/FIN, returns whether rcvNxt advanced.
func (c *Conn) processData(pkt *netsim.Packet) bool {
	seq := pkt.Seq
	data := pkt.Payload
	fin := pkt.Flags.Has(netsim.FlagFIN)

	// Trim data already received.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if uint32(len(data)) <= skip {
			if !fin || c.peerFin {
				return false
			}
			data = nil
			seq = c.rcvNxt
			if seqLT(pkt.SeqEnd()-1, c.rcvNxt) {
				return false // entirely old, FIN included
			}
		} else {
			data = data[skip:]
			seq = c.rcvNxt
		}
	}
	if seq != c.rcvNxt {
		// Out of order: park for reassembly. The slice is retained as-is
		// (zero-copy); see reasmSeg for why that is safe.
		c.stashReasm(reasmSeg{seq: seq, data: data, fin: fin})
		return false
	}
	c.ingest(data, fin)
	// Drain any contiguous parked segments.
	for {
		idx := -1
		for i, s := range c.reasm {
			if seqLEQ(s.seq, c.rcvNxt) {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		s := c.reasm[idx]
		c.reasm = append(c.reasm[:idx], c.reasm[idx+1:]...)
		d := s.data
		if skip := c.rcvNxt - s.seq; skip > 0 {
			if uint32(len(d)) <= skip {
				d = nil
			} else {
				d = d[skip:]
			}
		}
		c.ingest(d, s.fin)
	}
	return true
}

func (c *Conn) stashReasm(s reasmSeg) {
	for _, e := range c.reasm {
		if e.seq == s.seq && len(e.data) >= len(s.data) {
			return // duplicate
		}
	}
	c.reasm = append(c.reasm, s)
	sort.Slice(c.reasm, func(i, j int) bool { return seqLT(c.reasm[i].seq, c.reasm[j].seq) })
}

func (c *Conn) ingest(data []byte, fin bool) {
	if len(data) > 0 {
		c.rcvNxt += uint32(len(data))
		c.BytesRecv += uint64(len(data))
		if c.cb.OnData != nil {
			c.cb.OnData(c, data)
		}
	}
	if fin && !c.peerFin {
		c.peerFin = true
		c.rcvNxt++
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait:
			// Both directions closing; maybeFinish completes it.
		}
		if c.cb.OnPeerClose != nil {
			c.cb.OnPeerClose(c)
		}
	}
}

// maybeFinish closes the connection once both FINs are exchanged and ours
// is acknowledged.
func (c *Conn) maybeFinish() {
	if c.state == StateClosed {
		return
	}
	ourFinAcked := c.finSent && seqLT(c.finSeq, c.sndUna)
	if ourFinAcked && c.peerFin {
		c.teardown()
		if c.cb.OnClose != nil {
			c.cb.OnClose(c)
		}
	} else if c.state == StateLastAck && ourFinAcked {
		c.teardown()
		if c.cb.OnClose != nil {
			c.cb.OnClose(c)
		}
	}
}
