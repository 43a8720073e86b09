package core

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func TestRecordRoundTripConnPhase(t *testing.T) {
	r := &Record{
		Phase:     PhaseConn,
		Client:    netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
		VIP:       netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
		ClientISN: 0xDEADBEEF,
	}
	got, err := UnmarshalRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordRoundTripTunnelPhase(t *testing.T) {
	r := &Record{
		Phase:       PhaseTunnel,
		Client:      netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
		VIP:         netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
		ClientISN:   1,
		Server:      netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 9), Port: 80},
		SNAT:        netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 22001},
		C:           0xCAFEBABE,
		S:           0x12345678,
		Delta:       0xCAFEBABE - 0x12345678,
		KeepAlive:   true,
		BackendName: "srv-7",
	}
	got, err := UnmarshalRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(cip, vip, sip uint32, cport, vport, sport, snat uint16,
		isn, cc, ss uint32, ka bool, name string) bool {
		r := &Record{
			Phase:       PhaseTunnel,
			Client:      netsim.HostPort{IP: netsim.IP(cip), Port: cport},
			VIP:         netsim.HostPort{IP: netsim.IP(vip), Port: vport},
			ClientISN:   isn,
			Server:      netsim.HostPort{IP: netsim.IP(sip), Port: sport},
			SNAT:        netsim.HostPort{IP: netsim.IP(vip), Port: snat},
			C:           cc,
			S:           ss,
			Delta:       cc - ss,
			KeepAlive:   ka,
			BackendName: name,
		}
		got, err := UnmarshalRecord(r.Marshal())
		return err == nil && *got == *r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{recordMagic},
		{recordMagic, 99},                // bad phase
		{recordMagic, byte(PhaseConn)},   // truncated
		{recordMagic, byte(PhaseTunnel)}, // truncated
	}
	for i, c := range cases {
		if _, err := UnmarshalRecord(c); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	// Truncated mid-record.
	good := (&Record{Phase: PhaseTunnel, BackendName: "abc"}).Marshal()
	for cut := 1; cut < len(good); cut++ {
		if _, err := UnmarshalRecord(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestFlowKeyDistinct(t *testing.T) {
	a := netsim.FourTuple{
		Src: netsim.HostPort{IP: netsim.IPv4(1, 2, 3, 4), Port: 10},
		Dst: netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
	}
	b := a
	b.Src.Port = 11
	if FlowKey(a) == FlowKey(b) {
		t.Fatal("distinct tuples share a key")
	}
	if FlowKey(a) != FlowKey(a) {
		t.Fatal("key not deterministic")
	}
}

func TestISNHashDeterministicAndSpread(t *testing.T) {
	vip := netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80}
	seen := make(map[uint32]bool)
	for p := uint16(1); p <= 1000; p++ {
		cl := netsim.HostPort{IP: netsim.IPv4(100, 0, 0, 1), Port: p}
		a := isnHash(cl, vip)
		if a != isnHash(cl, vip) {
			t.Fatal("isnHash not deterministic")
		}
		seen[a] = true
	}
	if len(seen) < 990 {
		t.Fatalf("isnHash collisions: %d distinct of 1000", len(seen))
	}
}

func TestSeqDiff(t *testing.T) {
	if seqDiff(5, 3) != 2 || seqDiff(3, 5) != -2 {
		t.Fatal("basic diff")
	}
	// Wraparound.
	if seqDiff(2, 0xFFFFFFFE) != 4 {
		t.Fatalf("wrap diff = %d", seqDiff(2, 0xFFFFFFFE))
	}
}

func TestFrameRequests(t *testing.T) {
	r1 := []byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\n")
	r2 := []byte("POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nBODY")
	buf := append(append([]byte(nil), r1...), r2...)
	frames, consumed := frameRequests(buf)
	if len(frames) != 2 || consumed != len(buf) {
		t.Fatalf("frames=%d consumed=%d want 2/%d", len(frames), consumed, len(buf))
	}
	if frames[0].req.Path != "/a" || frames[1].req.Path != "/b" {
		t.Fatalf("paths: %s %s", frames[0].req.Path, frames[1].req.Path)
	}
	if string(frames[1].raw) != string(r2) {
		t.Fatalf("raw frame 2 mismatch")
	}
	// Partial request: nothing framed.
	frames, consumed = frameRequests(r2[:20])
	if len(frames) != 0 || consumed != 0 {
		t.Fatalf("partial framed: %d %d", len(frames), consumed)
	}
	// Partial body.
	frames, consumed = frameRequests(buf[:len(buf)-2])
	if len(frames) != 1 || consumed != len(r1) {
		t.Fatalf("partial body framed: %d %d", len(frames), consumed)
	}
}

func TestFrameResponseLen(t *testing.T) {
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	if n := frameResponseLen(resp); n != len(resp) {
		t.Fatalf("n=%d want %d", n, len(resp))
	}
	if n := frameResponseLen(resp[:10]); n != 0 {
		t.Fatalf("partial header framed: %d", n)
	}
	if n := frameResponseLen(resp[:len(resp)-1]); n != 0 {
		t.Fatalf("partial body framed: %d", n)
	}
	// No content-length: header-only frame.
	hdrOnly := []byte("HTTP/1.1 204 No Content\r\n\r\n")
	if n := frameResponseLen(hdrOnly); n != len(hdrOnly) {
		t.Fatalf("no-CL frame: %d", n)
	}
}

// A Content-Length of math.MaxInt overflows head length plus body
// length; every framing helper must report "not framed" instead of
// panicking or returning a negative length.
func TestFramingRejectsContentLengthOverflow(t *testing.T) {
	req := []byte(overflowRequest + "tail")
	if frames, consumed := frameRequests(req); len(frames) != 0 || consumed != 0 {
		t.Fatalf("frameRequests: %d frames, %d consumed", len(frames), consumed)
	}
	ok := []byte("GET /a HTTP/1.1\r\n\r\n")
	if frames, consumed := frameRequests(append(ok, req...)); len(frames) != 1 || consumed != len(ok) {
		t.Fatalf("frameRequests after a good request: %d frames, %d consumed", len(frames), consumed)
	}
	if n := firstRequestLen(req); n != len(req) {
		t.Fatalf("firstRequestLen = %d, want %d", n, len(req))
	}
	if n := frameResponseLen([]byte(overflowResponse + "tail")); n != 0 {
		t.Fatalf("frameResponseLen = %d, want 0", n)
	}
}
