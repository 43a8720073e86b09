package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
)

// Keep-alive (HTTP/1.1) support, §5.2 of the paper: a single client
// connection can carry multiple requests that may match different rules
// and therefore different backends. The instance keeps inspecting client
// payloads in the tunneling phase; when a request selects a new backend
// it closes the old server connection, dials the new one reusing the
// client's current sequence position, rebases the translation delta, and
// updates the mapping in TCPStore.
//
// To keep responses in order (the paper's pipelining requirement),
// requests are framed and forwarded one at a time: request N+1 is held
// until response N has been observed complete on the return path.

// kaRequest is one framed, not-yet-forwarded client request.
type kaRequest struct {
	raw      []byte
	startSeq uint32
	req      *httpsim.Request
}

// kaState is the inspected-tunnel bookkeeping attached to keep-alive
// flows.
type kaState struct {
	held    []byte // in-order client bytes not yet framed into a request
	heldSeq uint32 // client sequence number of held[0]
	queue   []kaRequest
	// streamBytes counts bytes of the in-flight request's body that have
	// not arrived yet and should be forwarded straight through (the
	// request was selected off its header; its tail needs no holding).
	streamBytes int

	respOutstanding int // responses owed before the next request may go

	// Response framing over the raw (untranslated) server byte stream.
	respBuf       []byte
	serverNextSeq uint32
	serverOOO     map[uint32][]byte

	// Backend switching. committing marks the window where the new
	// backend's SYN-ACK arrived and the rewritten flow record is inside
	// the write barrier: retransmitted SYN-ACKs must not re-enter the
	// commit.
	switching  bool
	committing bool
	pendReq    *kaRequest

	// A client FIN that must be forwarded once all held data flushes.
	finPending bool
	finSeq     uint32
	finAck     uint32
}

// initKeepAlive is called when a keep-alive flow enters the tunnel phase.
// It returns the bytes the connection phase should forward to the first
// backend: only the first request — any pipelined requests already
// buffered must be held and individually re-selected, otherwise they
// would all land on the first request's backend (§5.2).
func (in *Instance) initKeepAlive(f *flow) []byte {
	ka := &kaState{
		serverNextSeq:   f.s + 1,
		serverOOO:       make(map[uint32][]byte),
		respOutstanding: 1,
	}
	f.ka = ka
	frames, consumed := frameRequests(f.reqBuf)
	if len(frames) == 0 {
		// The first request's header is complete (selection ran) but its
		// body is still arriving: stream the rest through as it lands.
		ka.heldSeq = f.clientISN + 1 + uint32(len(f.reqBuf))
		ka.streamBytes = firstRequestLen(f.reqBuf) - len(f.reqBuf)
		return f.reqBuf
	}
	first := frames[0]
	seq := f.clientISN + 1 + uint32(len(first.raw))
	for _, fr := range frames[1:] {
		fr.startSeq = seq
		seq += uint32(len(fr.raw))
		ka.queue = append(ka.queue, fr)
	}
	ka.held = append([]byte(nil), f.reqBuf[consumed:]...)
	ka.heldSeq = f.clientISN + 1 + uint32(consumed)
	return first.raw
}

// firstRequestLen returns the full wire length (header + declared body)
// of the request at the front of buf. The header must be complete.
func firstRequestLen(buf []byte) int {
	req, err := httpsim.ParseRequestHeader(buf)
	if err != nil || req == nil {
		return len(buf)
	}
	total := headerBlockLen(buf)
	if cl := req.Header("Content-Length"); cl != "" {
		if n, err := strconv.Atoi(cl); err == nil && n > 0 {
			if n > math.MaxInt-total {
				return len(buf)
			}
			total += n
		}
	}
	return total
}

// frameRequests splits buf into complete HTTP request frames, returning
// the frames and the number of bytes they consume.
func frameRequests(buf []byte) ([]kaRequest, int) {
	var frames []kaRequest
	consumed := 0
	for {
		rest := buf[consumed:]
		req, err := httpsim.ParseRequestHeader(rest)
		if err != nil || req == nil {
			return frames, consumed
		}
		headerLen := headerBlockLen(rest)
		bodyLen := 0
		if cl := req.Header("Content-Length"); cl != "" {
			n, cerr := strconv.Atoi(cl)
			if cerr != nil || n < 0 || n > math.MaxInt-headerLen {
				return frames, consumed
			}
			bodyLen = n
		}
		total := headerLen + bodyLen
		if len(rest) < total {
			return frames, consumed
		}
		frames = append(frames, kaRequest{
			raw: append([]byte(nil), rest[:total]...),
			req: req,
		})
		consumed += total
	}
}

// headerBlockLen returns the length of the header block including the
// terminating CRLFCRLF. The caller has already verified it is complete.
func headerBlockLen(buf []byte) int {
	idx := bytes.Index(buf, []byte("\r\n\r\n"))
	return idx + 4
}

// kaFromClient processes a client packet on an inspected keep-alive flow.
func (in *Instance) kaFromClient(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if len(pkt.Payload) > 0 {
		in.kaAssembleClient(f, pkt.Seq, pkt.Payload)
		in.kaFrameAndFlush(f)
	} else if !pkt.Flags.Has(netsim.FlagFIN) && !ka.switching {
		// Bare ACK: translate and pass through so the server's
		// retransmission timers stay quiet. While a backend switch is in
		// flight there is no established server connection to ACK — the
		// segment would only draw a RST from the new backend's listener —
		// so those are dropped (they carry no information the new backend
		// needs).
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: pkt.Flags, Seq: pkt.Seq, Ack: pkt.Ack - f.delta, Window: pkt.Window,
		}, in.IP())
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		ka.finPending = true
		ka.finSeq = pkt.SeqEnd() - 1 // sequence the FIN occupies
		ka.finAck = pkt.Ack
		in.kaMaybeForwardFin(f)
	}
}

// kaAssembleClient merges client payload into the held buffer in order.
func (in *Instance) kaAssembleClient(f *flow, seq uint32, data []byte) {
	expected := f.ka.heldSeq + uint32(len(f.ka.held))
	if seqDiff(expected, seq) > 0 {
		skip := expected - seq
		if uint32(len(data)) <= skip {
			return // duplicate
		}
		data = data[skip:]
		seq = expected
	}
	if seq != expected {
		f.ooo[seq] = append([]byte(nil), data...)
		return
	}
	f.ka.held = append(f.ka.held, data...)
	for {
		next := f.ka.heldSeq + uint32(len(f.ka.held))
		d, ok := f.ooo[next]
		if !ok {
			break
		}
		delete(f.ooo, next)
		f.ka.held = append(f.ka.held, d...)
	}
	f.clientNextSeq = f.ka.heldSeq + uint32(len(f.ka.held))
}

// kaFrameAndFlush frames held bytes into requests and forwards as many as
// ordering allows.
func (in *Instance) kaFrameAndFlush(f *flow) {
	ka := f.ka
	// Pass through the tail of an in-flight streamed request first.
	if ka.streamBytes > 0 && len(ka.held) > 0 {
		n := ka.streamBytes
		if n > len(ka.held) {
			n = len(ka.held)
		}
		in.forwardClientBytes(f, ka.heldSeq, ka.held[:n])
		ka.held = append([]byte(nil), ka.held[n:]...)
		ka.heldSeq += uint32(n)
		ka.streamBytes -= n
	}
	frames, consumed := frameRequests(ka.held)
	if consumed > 0 {
		for i := range frames {
			frames[i].startSeq = ka.heldSeq
			ka.heldSeq += uint32(len(frames[i].raw))
			// recompute per frame: startSeq advances by each frame's size
		}
		// The loop above advanced heldSeq frame by frame; fix startSeq to
		// be each frame's own beginning.
		seq := frames[0].startSeq
		for i := range frames {
			frames[i].startSeq = seq
			seq += uint32(len(frames[i].raw))
		}
		ka.held = append([]byte(nil), ka.held[consumed:]...)
		ka.queue = append(ka.queue, frames...)
	}
	in.kaFlush(f)
}

// kaFlush forwards the next queued request if no response is outstanding.
func (in *Instance) kaFlush(f *flow) {
	ka := f.ka
	if ka.switching || ka.respOutstanding > 0 || len(ka.queue) == 0 {
		in.kaMaybeForwardFin(f)
		return
	}
	next := ka.queue[0]
	ka.queue = ka.queue[1:]
	engine, ok := in.engines[f.vip.IP]
	if !ok {
		in.reject(f, 503, "vip not assigned to this instance")
		return
	}
	decision := engine.Select(next.req, in.rng.Float64(), in.info)
	in.CPU.Charge(in.net.Now(), time.Duration(decision.Scanned)*in.cfg.LookupPerRule)
	if !decision.OK {
		in.reject(f, 503, "no rule matched")
		return
	}
	if decision.Backend.Name == f.backendName {
		ka.respOutstanding++
		in.forwardClientBytes(f, next.startSeq, next.raw)
		in.kaFlush(f)
		return
	}
	in.kaSwitchBackend(f, next, decision.Backend)
}

// kaSwitchBackend closes the current server connection and redials the
// newly selected backend, preserving the client's sequence position.
func (in *Instance) kaSwitchBackend(f *flow, next kaRequest, backend rules.Backend) {
	in.Reselections++
	ka := f.ka
	// Abort the old server connection and clear its SNAT binding.
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags: netsim.FlagRST, Seq: next.startSeq, Ack: f.s + 1,
	}, in.IP())
	oldServerTuple := f.serverTuple()
	in.flows.del(oldServerTuple, f)
	if f.persisted {
		in.store.Delete(in.flowKey(oldServerTuple), nil)
	}
	in.l4.ClearSNAT(oldServerTuple)
	in.releaseSNATPort(f.snat.Port)

	// Releasing first means a switch can always reclaim its own port even
	// when the range is otherwise full.
	port, ok := in.allocSNATPort()
	if !ok {
		in.statsFor(f.vip.IP).SNATExhausted++
		in.reject(f, 503, "snat ports exhausted")
		return
	}
	f.server = backend.Addr
	f.backendName = backend.Name
	f.snat = netsim.HostPort{IP: f.vip.IP, Port: port}
	in.flows.put(f.serverTuple(), f)
	ka.switching = true
	ka.pendReq = &next
	f.dialTries = 0
	in.kaSendSwitchSyn(f)
}

func (in *Instance) kaSendSwitchSyn(f *flow) {
	ka := f.ka
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags:  netsim.FlagSYN,
		Seq:    ka.pendReq.startSeq - 1, // handshake consumes one seq unit
		Window: 1 << 20,
	}, in.IP())
	f.dialTries++
	f.dialTimer.Stop()
	f.dialTimer = in.net.Schedule(3*time.Second, func() {
		if !ka.switching || ka.committing || in.flows.get(f.clientTuple()) != f {
			return
		}
		if f.dialTries >= 3 {
			in.reject(f, 503, "backend unreachable")
			return
		}
		in.kaSendSwitchSyn(f)
	})
}

// kaCompleteSwitch finishes a backend switch on the new server's SYN-ACK.
func (in *Instance) kaCompleteSwitch(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if ka.committing || pkt.Ack != ka.pendReq.startSeq {
		return // already mid-commit, or stale
	}
	f.dialTimer.Stop()
	f.s = pkt.Seq
	// Rebase translation: the client has already received bytes up to
	// toClientNext in its own view; the new server starts at S+1.
	f.delta = f.toClientNext - (f.s + 1)
	ka.serverNextSeq = f.s + 1
	ka.respBuf = nil
	ka.serverOOO = make(map[uint32][]byte)
	ka.committing = true
	// Rewrite the decoupled state so recovery lands on the new backend —
	// before the ACK and request replay, the same persist-before-ACK rule
	// the first dial obeys (storage-b applied to re-selection).
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func() {
		if !ka.switching {
			return
		}
		// ACK and replay the pending request.
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: netsim.FlagACK,
			Seq:   ka.pendReq.startSeq, Ack: f.s + 1,
			Window: 1 << 20,
		}, in.IP())
		in.forwardClientBytes(f, ka.pendReq.startSeq, ka.pendReq.raw)
		ka.respOutstanding++
		ka.switching = false
		ka.committing = false
		ka.pendReq = nil
	}, func(error) {
		ka.committing = false
		in.reject(f, 503, "flow state not persisted")
	})
}

// kaFromServer processes a server packet on an inspected keep-alive flow.
func (in *Instance) kaFromServer(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if ka.switching && pkt.Flags.Has(netsim.FlagSYN|netsim.FlagACK) {
		in.kaCompleteSwitch(f, pkt)
		return
	}
	if pkt.Flags.Has(netsim.FlagRST) {
		// Backend aborted mid-connection; propagate and drop state.
		in.net.Send(&netsim.Packet{
			Src: f.vip, Dst: f.client,
			Flags: netsim.FlagRST, Seq: pkt.Seq + f.delta, Ack: pkt.Ack,
		})
		in.teardown(f, true)
		return
	}
	if pkt.Flags.Has(netsim.FlagSYN) {
		// Retransmitted SYN-ACK of the established connection: re-ACK.
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: netsim.FlagACK,
			Seq:   f.clientISN + 1, Ack: f.s + 1,
		}, in.IP())
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.serverFin = true
	}
	if len(pkt.Payload) > 0 {
		in.kaAssembleServer(f, pkt.Seq, pkt.Payload)
	}
	end := pkt.SeqEnd() + f.delta
	if seqDiff(end, f.toClientNext) > 0 {
		f.toClientNext = end
	}
	in.net.Send(&netsim.Packet{
		Src: f.vip, Dst: f.client,
		Flags: pkt.Flags, Seq: pkt.Seq + f.delta, Ack: pkt.Ack,
		Window: pkt.Window, Payload: pkt.Payload,
	})
	in.maybeFinish(f)
}

// kaAssembleServer tracks the raw server byte stream to detect response
// boundaries.
func (in *Instance) kaAssembleServer(f *flow, seq uint32, data []byte) {
	ka := f.ka
	if seqDiff(ka.serverNextSeq, seq) > 0 {
		skip := ka.serverNextSeq - seq
		if uint32(len(data)) <= skip {
			return
		}
		data = data[skip:]
		seq = ka.serverNextSeq
	}
	if seq != ka.serverNextSeq {
		ka.serverOOO[seq] = append([]byte(nil), data...)
		return
	}
	ka.respBuf = append(ka.respBuf, data...)
	ka.serverNextSeq += uint32(len(data))
	for {
		d, ok := ka.serverOOO[ka.serverNextSeq]
		if !ok {
			break
		}
		delete(ka.serverOOO, ka.serverNextSeq)
		ka.respBuf = append(ka.respBuf, d...)
		ka.serverNextSeq += uint32(len(d))
	}
	in.kaConsumeResponses(f)
}

// kaConsumeResponses pops complete responses off the buffer, releasing
// held requests as each one finishes.
func (in *Instance) kaConsumeResponses(f *flow) {
	ka := f.ka
	for {
		n := frameResponseLen(ka.respBuf)
		if n <= 0 {
			return
		}
		ka.respBuf = append([]byte(nil), ka.respBuf[n:]...)
		if ka.respOutstanding > 0 {
			ka.respOutstanding--
		}
		if ka.respOutstanding == 0 {
			in.kaFlush(f)
		}
	}
}

// frameResponseLen returns the wire length of the first complete HTTP
// response in buf, or 0 if incomplete/unparseable-yet.
func frameResponseLen(buf []byte) int {
	idx := bytes.Index(buf, []byte("\r\n\r\n"))
	if idx < 0 {
		return 0
	}
	head := buf[:idx]
	total := idx + 4
	// Walk header lines without converting the buffer to a string: the hot
	// response path runs this on every ACKed segment.
	for len(head) > 0 {
		eol := bytes.Index(head, []byte("\r\n"))
		var line []byte
		if eol < 0 {
			line, head = head, nil
		} else {
			line, head = head[:eol], head[eol+2:]
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		if strings.EqualFold(string(bytes.TrimSpace(line[:colon])), "Content-Length") {
			n, err := strconv.Atoi(string(bytes.TrimSpace(line[colon+1:])))
			if err != nil || n < 0 || n > math.MaxInt-total {
				return 0
			}
			total += n
			break
		}
	}
	if len(buf) < total {
		return 0
	}
	return total
}

// kaMaybeForwardFin forwards a deferred client FIN once all held requests
// have flushed.
func (in *Instance) kaMaybeForwardFin(f *flow) {
	ka := f.ka
	if !ka.finPending || len(ka.queue) > 0 || len(ka.held) > 0 || ka.switching {
		return
	}
	ka.finPending = false
	f.clientFin = true
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags: netsim.FlagFIN | netsim.FlagACK,
		Seq:   ka.finSeq, Ack: ka.finAck - f.delta,
	}, in.IP())
	in.maybeFinish(f)
}
