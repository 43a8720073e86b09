package core

import (
	"testing"
)

// overflowRequest and overflowResponse declare the largest Content-Length
// an int holds, so head length plus body length overflows.
const (
	overflowRequest  = "GET / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n"
	overflowResponse = "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n"
)

// FuzzUnmarshalRecord must never panic on arbitrary TCPStore values —
// after a failure an instance decodes bytes written by another process
// version, so corrupt input is a real input class.
func FuzzUnmarshalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Record{Phase: PhaseConn}).Marshal())
	f.Add((&Record{Phase: PhaseTunnel, BackendName: "srv"}).Marshal())
	bad := (&Record{Phase: PhaseTunnel, BackendName: "srv"}).Marshal()
	bad[1] = 99
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalRecord(data)
		if err != nil {
			return
		}
		// Accepted records must re-marshal to an equivalent record.
		again, err2 := UnmarshalRecord(rec.Marshal())
		if err2 != nil {
			t.Fatalf("re-unmarshal of accepted record failed: %v", err2)
		}
		if *again != *rec {
			t.Fatalf("round trip changed record: %+v vs %+v", again, rec)
		}
	})
}

// FuzzFrameRequests must never panic and must never consume more bytes
// than it was given.
func FuzzFrameRequests(f *testing.F) {
	f.Add([]byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\n"))
	f.Add([]byte("POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY"))
	f.Add([]byte("\r\n\r\n\r\n\r\n"))
	f.Add([]byte(overflowRequest + "tail"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, consumed := frameRequests(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		total := 0
		for _, fr := range frames {
			total += len(fr.raw)
		}
		if total != consumed {
			t.Fatalf("frame bytes %d != consumed %d", total, consumed)
		}
	})
}

// FuzzFrameResponseLen must never panic and never report a frame longer
// than the buffer.
func FuzzFrameResponseLen(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\n"))
	f.Add([]byte(overflowResponse + "tail"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := frameResponseLen(data)
		if n < 0 || n > len(data) {
			t.Fatalf("frame length %d of %d", n, len(data))
		}
	})
}
