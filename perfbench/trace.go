package main

import (
	"time"

	"repro/internal/netsim"
)

// Host kinds the traced run buckets delivery spans by.
const (
	kindYoda = iota
	kindMemcache
	kindBackend
	kindClient
	nKinds
)

// kindNames prefix each kind's metric names.
var kindNames = [nKinds]string{"core.", "memcache.", "httpsim.server_", "httpsim.client_"}

// span accumulates one kind's delivery spans.
type span struct {
	busy    time.Duration
	pkts    uint64
	batched uint64 // packets that arrived inside a HandleBatch call
}

// tracer times every delivery into a host from outside the program: each
// host is re-attached behind a node that forwards HandlePacket and
// HandleBatch unchanged and records the wall time spent inside. No
// network tracer is installed (that would disable packet recycling), so
// the traced run executes the same program as the untraced one.
type tracer struct {
	n     *netsim.Network
	spans [nKinds]span
	nodes map[netsim.IP]*timedNode
	// self is harness time (load generation and checking); nested is the
	// part of it spent inside a client delivery, subtracted from that
	// delivery's span.
	self, nested time.Duration
}

// timedNode is the wrapper. It implements netsim.BatchNode so batched
// delivery stays batched.
type timedNode struct {
	h    *netsim.Host
	sp   *span
	t    *tracer
	pkts uint64 // packets delivered through this wrapper
}

func (w *timedNode) HandlePacket(pkt *netsim.Packet) {
	before := w.t.nested
	t0 := time.Now()
	w.h.HandlePacket(pkt)
	w.sp.busy += time.Since(t0) - (w.t.nested - before)
	w.sp.pkts++
	w.pkts++
}

func (w *timedNode) HandleBatch(pkts []*netsim.Packet) {
	before := w.t.nested
	t0 := time.Now()
	w.h.HandleBatch(pkts)
	w.sp.busy += time.Since(t0) - (w.t.nested - before)
	w.sp.pkts += uint64(len(pkts))
	w.pkts += uint64(len(pkts))
	w.sp.batched += uint64(len(pkts))
}

var _ netsim.BatchNode = (*timedNode)(nil)

func newTracer(s *sim) *tracer {
	t := &tracer{n: s.c.Net, nodes: make(map[netsim.IP]*timedNode)}
	for _, in := range s.c.Yoda {
		t.wrap(in.Host(), kindYoda)
	}
	for _, srv := range s.c.StoreServers {
		t.wrap(srv.Host(), kindMemcache)
	}
	for _, b := range s.c.Backends {
		t.wrap(b.Server.Host(), kindBackend)
	}
	for _, cl := range s.clientHosts {
		t.wrap(cl, kindClient)
	}
	return t
}

func (t *tracer) wrap(h *netsim.Host, kind int) {
	w := &timedNode{h: h, sp: &t.spans[kind], t: t}
	t.nodes[h.IP()] = w
	t.n.Attach(h.IP(), w)
}

// rewrap re-attaches the wrapper after a restart: Host.Reattach attaches
// the bare host.
func (t *tracer) rewrap(h *netsim.Host) {
	t.n.Attach(h.IP(), t.nodes[h.IP()])
}

// reset zeroes the spans, so they cover only the timed phase.
func (t *tracer) reset() {
	t.spans = [nKinds]span{}
	t.self, t.nested = 0, 0
}

// hostBusy sums the spans of every kind.
func (t *tracer) hostBusy() time.Duration {
	var d time.Duration
	for i := range t.spans {
		d += t.spans[i].busy
	}
	return d
}
