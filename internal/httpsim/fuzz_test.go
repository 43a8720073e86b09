package httpsim

import (
	"bytes"
	"reflect"
	"testing"
)

// overflowRequest and overflowResponse declare the largest Content-Length
// an int holds, so head length plus body length overflows.
const (
	overflowRequest  = "GET / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n"
	overflowResponse = "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n"
)

// FuzzRequestParser feeds arbitrary bytes in arbitrary chunkings to the
// request parser: it must never panic, and whenever it accepts a
// well-formed request, re-marshalling and re-parsing must agree.
func FuzzRequestParser(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"), 3)
	f.Add([]byte("POST /u HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY"), 1)
	f.Add([]byte("GET /x HTTP/1.0\r\n\r\nGET /y HTTP/1.0\r\n\r\n"), 5)
	f.Add([]byte("garbage\r\n\r\n"), 2)
	f.Add([]byte("GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"), 1)
	f.Add([]byte(overflowRequest), 7)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		p := &RequestParser{}
		var whole []*Request
		failed := false
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			reqs, err := p.Feed(data[off:end])
			whole = append(whole, reqs...)
			if err != nil {
				failed = true
				break
			}
		}
		if failed {
			return
		}
		// Parsed requests must survive a marshal/parse round trip.
		for _, r := range whole {
			p2 := &RequestParser{}
			again, err := p2.Feed(r.Marshal())
			if err != nil || len(again) != 1 {
				t.Fatalf("re-parse of accepted request failed: %v (%d)", err, len(again))
			}
			if again[0].Method != r.Method || again[0].Path != r.Path || !bytes.Equal(again[0].Body, r.Body) {
				t.Fatalf("round trip changed request: %+v vs %+v", again[0], r)
			}
		}
	})
}

// FuzzResponseParser mirrors FuzzRequestParser for the response side.
func FuzzResponseParser(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"), 4)
	f.Add([]byte("HTTP/1.1 404 Not Found\r\n\r\n"), 1)
	f.Add([]byte("NOPE\r\n\r\n"), 2)
	f.Add([]byte(overflowResponse), 7)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		p := &ResponseParser{}
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := p.Feed(data[off:end]); err != nil {
				return
			}
		}
	})
}

// FuzzParseRequestHeader must never panic or claim completion on
// truncated headers.
func FuzzParseRequestHeader(f *testing.F) {
	f.Add([]byte("GET /p HTTP/1.1\r\nHost: h\r\n\r\ntail"))
	f.Add([]byte("GET /p HTTP/1.1\r\nHost"))
	f.Add([]byte(overflowRequest))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequestHeader(data)
		if err == nil && req != nil {
			if !bytes.Contains(data, []byte("\r\n\r\n")) {
				t.Fatal("claimed completion without header terminator")
			}
		}
	})
}

// FuzzRequestParserDifferential feeds the same bytes to the streaming
// RequestParser and the reference parser (parser_reference_test.go),
// chunk by chunk under two chunkings. After every Feed they must return
// the same requests and error and hold the same number of bytes.
func FuzzRequestParserDifferential(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"), uint32(1), uint32(2))
	f.Add([]byte("POST /u HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODYGET /v HTTP/1.1\r\n\r\n"), uint32(3), uint32(4))
	f.Add([]byte("POST /u HTTP/1.1\r\nContent-Length: 10\r\n\r\nBODY"), uint32(5), uint32(6))
	f.Add([]byte("GET /x HTTP/1.0\r\n\r\ngarbage\r\n\r\nGET /y HTTP/1.0\r\n\r\n"), uint32(7), uint32(8))
	f.Add([]byte("GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n"), uint32(9), uint32(10))
	f.Add([]byte(overflowRequest+"tail"), uint32(11), uint32(12))
	f.Fuzz(func(t *testing.T, data []byte, seed1, seed2 uint32) {
		for _, seed := range []uint32{seed1, seed2} {
			differential[*Request](t, data, seed, 96, &RequestParser{}, &refRequestParser{})
		}
	})
}

// FuzzResponseParserDifferential mirrors FuzzRequestParserDifferential
// for the response side.
func FuzzResponseParserDifferential(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"), uint32(1), uint32(2))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"), uint32(3), uint32(4))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort"), uint32(5), uint32(6))
	f.Add([]byte("NOPE\r\n\r\nHTTP/1.1 200 OK\r\n\r\n"), uint32(7), uint32(8))
	f.Add([]byte("HTTP/1.1 abc OK\r\n\r\n"), uint32(9), uint32(10))
	f.Add([]byte(overflowResponse+"tail"), uint32(11), uint32(12))
	f.Fuzz(func(t *testing.T, data []byte, seed1, seed2 uint32) {
		for _, seed := range []uint32{seed1, seed2} {
			differential[*Response](t, data, seed, 96, &ResponseParser{}, &refResponseParser{})
		}
	})
}

type feeder[M any] interface {
	Feed([]byte) ([]M, error)
	Buffered() int
}

// differential feeds data to got and want in the same chunks of at most
// limit bytes, and fails on the first Feed where their messages, errors
// or Buffered differ. It keeps feeding after an error, so the state an
// error leaves behind is compared too.
func differential[M any](t *testing.T, data []byte, seed uint32, limit int, got, want feeder[M]) {
	t.Helper()
	for i, c := range chunkings(data, seed, limit) {
		g, gerr := got.Feed(c)
		w, werr := want.Feed(c)
		if gerr != werr {
			t.Fatalf("seed %d feed %d: error %v, reference %v", seed, i, gerr, werr)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d feed %d: messages %+v, reference %+v", seed, i, g, w)
		}
		if got.Buffered() != want.Buffered() {
			t.Fatalf("seed %d feed %d: buffered %d, reference %d", seed, i, got.Buffered(), want.Buffered())
		}
	}
}

// chunkings splits data into pieces of 0 to limit bytes whose sizes
// follow an xorshift stream seeded by seed, so one input exercises
// irregular splits, empty feeds included.
func chunkings(data []byte, seed uint32, limit int) [][]byte {
	s := seed | 1
	var out [][]byte
	for len(data) > 0 {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		n := min(int(s%uint32(limit+1)), len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}
