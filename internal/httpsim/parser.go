package httpsim

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
)

// Parse errors.
var (
	ErrMalformed = errors.New("httpsim: malformed message")
	ErrTooLarge  = errors.New("httpsim: header exceeds limit")
)

// maxHeaderBytes bounds header accumulation so a garbage stream cannot
// grow a parser without limit.
const maxHeaderBytes = 64 * 1024

// maxBodyPrealloc caps the capacity reserved for a body up front from
// its declared Content-Length. A longer body grows past it by append,
// so a header that claims more than the peer sends reserves at most this.
const maxBodyPrealloc = 1 << 20

var crlfcrlf = []byte("\r\n\r\n")

// framer splits a byte stream into HTTP messages: a head ended by
// CRLFCRLF, then a body of the length the head declares. It holds only
// the current message's head bytes and its body. The terminator search
// rescans at most 3 bytes, the caller parses each head once, and each body
// byte is copied exactly once, from the caller's data straight into the
// body. Bytes past a completed body stay in the caller's slice for the
// next message, so keep-alive and pipelined streams frame in one pass.
type framer struct {
	head []byte // current message's head: unframed, or framed while its body fills
	body []byte // body bytes received so far
	want int    // declared body length of the message whose body is filling
	err  error  // sticky ErrMalformed: the head in front can never parse
}

// nextHead moves head bytes from *data into the framer until the
// terminator arrives, and returns the completed head without it. It
// returns nil once data runs out first.
func (f *framer) nextHead(data *[]byte) ([]byte, error) {
	d := *data
	if f.err != nil {
		f.head = append(f.head, d...)
		*data = nil
		return nil, f.err
	}
	old := len(f.head)
	// A terminator can straddle the old end, so the search resumes 3
	// bytes before it; the bytes in front hold no terminator.
	f.head = append(f.head, d[:min(len(d), 3)]...)
	from := max(old-3, 0)
	if i := bytes.Index(f.head[from:], crlfcrlf); i >= 0 {
		end := from + i + 4
		f.head = f.head[:end]
		*data = d[end-old:]
		return f.head[:end-4], nil
	}
	f.head = f.head[:old]
	if i := bytes.Index(d, crlfcrlf); i >= 0 {
		f.head = append(f.head, d[:i+4]...)
		*data = d[i+4:]
		return f.head[:len(f.head)-4], nil
	}
	f.head = append(f.head, d...)
	*data = nil
	return nil, nil
}

// expect starts the body of the head just framed.
func (f *framer) expect(n int) {
	f.want = n
	if n > 0 {
		f.body = make([]byte, 0, min(n, maxBodyPrealloc))
	}
}

// fill moves body bytes from *data into the body and returns the body
// once it is complete, resetting the framer for the next message.
func (f *framer) fill(data *[]byte) ([]byte, bool) {
	d := *data
	n := min(f.want-len(f.body), len(d))
	f.body = append(f.body, d[:n]...)
	*data = d[n:]
	if len(f.body) < f.want {
		return nil, false
	}
	body := f.body
	f.head, f.body, f.want = f.head[:0], nil, 0
	return body, true
}

// fail keeps the rest of data behind the unparseable head and makes err
// sticky: every later Feed fails the same way, as the head never leaves.
func (f *framer) fail(err error, data []byte) error {
	f.head = append(f.head, data...)
	f.err = err
	return err
}

// buffered returns the number of unconsumed bytes held.
func (f *framer) buffered() int { return len(f.head) + len(f.body) }

// RequestParser incrementally parses a stream of HTTP requests. Feed
// returns each complete request as it is framed; partial input is
// buffered. It supports back-to-back (keep-alive and pipelined) requests.
type RequestParser struct {
	f   framer
	req *Request // framed head whose body is filling
}

// Feed appends data and returns any requests completed by it.
func (p *RequestParser) Feed(data []byte) ([]*Request, error) {
	var out []*Request
	for {
		if p.req == nil {
			head, err := p.f.nextHead(&data)
			if err != nil {
				return out, err
			}
			if head == nil {
				break
			}
			req, err := parseRequestHead(head)
			if err != nil {
				return out, p.f.fail(err, data)
			}
			n, err := contentLength(req.Header("Content-Length"), len(head)+4)
			if err != nil {
				return out, p.f.fail(err, data)
			}
			p.req = req
			p.f.expect(n)
		}
		body, ok := p.f.fill(&data)
		if !ok {
			break
		}
		p.req.Body = body
		out = append(out, p.req)
		p.req = nil
	}
	if p.f.buffered() > maxHeaderBytes {
		return out, ErrTooLarge
	}
	return out, nil
}

// Buffered returns the number of unconsumed bytes held by the parser.
func (p *RequestParser) Buffered() int { return p.f.buffered() }

// ParseRequestHeader parses just the header block out of raw bytes,
// without requiring the body. It returns nil if the header is incomplete.
// This is the entry point used by the Yoda instance's connection phase.
func ParseRequestHeader(raw []byte) (*Request, error) {
	idx := bytes.Index(raw, crlfcrlf)
	if idx < 0 {
		if len(raw) > maxHeaderBytes {
			return nil, ErrTooLarge
		}
		return nil, nil
	}
	return parseRequestHead(raw[:idx])
}

func parseRequestHead(head []byte) (*Request, error) {
	lines := strings.Split(string(head), "\r\n")
	if len(lines) == 0 {
		return nil, ErrMalformed
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, ErrMalformed
	}
	req := &Request{
		Method:  parts[0],
		Path:    parts[1],
		Version: parts[2],
		Headers: make(map[string]string, len(lines)-1),
	}
	if err := parseHeaderLines(lines[1:], req.Headers); err != nil {
		return nil, err
	}
	return req, nil
}

// ResponseParser incrementally parses a stream of HTTP responses.
type ResponseParser struct {
	f    framer
	resp *Response // framed head whose body is filling
}

// Feed appends data and returns any responses completed by it.
func (p *ResponseParser) Feed(data []byte) ([]*Response, error) {
	var out []*Response
	for {
		if p.resp == nil {
			head, err := p.f.nextHead(&data)
			if err != nil {
				return out, err
			}
			if head == nil {
				break
			}
			resp, err := parseResponseHead(head)
			if err != nil {
				return out, p.f.fail(err, data)
			}
			n, err := contentLength(resp.Header("Content-Length"), len(head)+4)
			if err != nil {
				return out, p.f.fail(err, data)
			}
			p.resp = resp
			p.f.expect(n)
		}
		body, ok := p.f.fill(&data)
		if !ok {
			break
		}
		p.resp.Body = body
		out = append(out, p.resp)
		p.resp = nil
	}
	// Only an unterminated head is bounded; a framed body may be long.
	if p.resp == nil && p.f.buffered() > maxHeaderBytes {
		return out, ErrTooLarge
	}
	return out, nil
}

// Buffered returns the number of unconsumed bytes held by the parser.
func (p *ResponseParser) Buffered() int { return p.f.buffered() }

func parseResponseHead(head []byte) (*Response, error) {
	lines := strings.Split(string(head), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, ErrMalformed
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, ErrMalformed
	}
	resp := &Response{
		Version:    parts[0],
		StatusCode: code,
		Headers:    make(map[string]string, len(lines)-1),
	}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := parseHeaderLines(lines[1:], resp.Headers); err != nil {
		return nil, err
	}
	return resp, nil
}

// contentLength parses a declared Content-Length ("" means none) for a
// message whose head, terminator included, is headLen bytes. A length
// that would carry the message's end past math.MaxInt is malformed.
func contentLength(cl string, headLen int) (int, error) {
	if cl == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 || n > math.MaxInt-headLen {
		return 0, ErrMalformed
	}
	return n, nil
}

func parseHeaderLines(lines []string, into map[string]string) error {
	for _, line := range lines {
		if line == "" {
			continue
		}
		kv := strings.SplitN(line, ":", 2)
		if len(kv) != 2 {
			return ErrMalformed
		}
		into[canonical(strings.TrimSpace(kv[0]))] = strings.TrimSpace(kv[1])
	}
	return nil
}
