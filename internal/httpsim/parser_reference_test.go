package httpsim

import (
	"bytes"
	"math"
	"strconv"
	"strings"
)

// The reference parsers below frame the simple way: every Feed appends
// to one buffer, rescans it for the header terminator, parses the head
// afresh and copies the body out once the whole message is buffered.
// They are the oracle the differential fuzzers in fuzz_test.go hold the
// streaming framer to.

type refRequestParser struct {
	buf bytes.Buffer
}

func (p *refRequestParser) Feed(data []byte) ([]*Request, error) {
	p.buf.Write(data)
	var out []*Request
	for {
		req, consumed, err := refParseRequest(p.buf.Bytes())
		if err != nil {
			return out, err
		}
		if req == nil {
			if p.buf.Len() > maxHeaderBytes {
				return out, ErrTooLarge
			}
			return out, nil
		}
		p.buf.Next(consumed)
		out = append(out, req)
	}
}

func (p *refRequestParser) Buffered() int { return p.buf.Len() }

func refParseRequest(buf []byte) (*Request, int, error) {
	idx := bytes.Index(buf, []byte("\r\n\r\n"))
	if idx < 0 {
		return nil, 0, nil
	}
	req, err := parseRequestHead(buf[:idx])
	if err != nil {
		return nil, 0, err
	}
	bodyLen := 0
	if cl := req.Header("Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 || n > math.MaxInt-(idx+4) {
			return nil, 0, ErrMalformed
		}
		bodyLen = n
	}
	total := idx + 4 + bodyLen
	if len(buf) < total {
		return nil, 0, nil
	}
	if bodyLen > 0 {
		req.Body = append([]byte(nil), buf[idx+4:total]...)
	}
	return req, total, nil
}

type refResponseParser struct {
	buf bytes.Buffer
}

func (p *refResponseParser) Feed(data []byte) ([]*Response, error) {
	p.buf.Write(data)
	var out []*Response
	for {
		resp, consumed, err := refParseResponse(p.buf.Bytes())
		if err != nil {
			return out, err
		}
		if resp == nil {
			if p.buf.Len() > maxHeaderBytes && !bytes.Contains(p.buf.Bytes(), []byte("\r\n\r\n")) {
				return out, ErrTooLarge
			}
			return out, nil
		}
		p.buf.Next(consumed)
		out = append(out, resp)
	}
}

func (p *refResponseParser) Buffered() int { return p.buf.Len() }

func refParseResponse(buf []byte) (*Response, int, error) {
	idx := bytes.Index(buf, []byte("\r\n\r\n"))
	if idx < 0 {
		return nil, 0, nil
	}
	lines := strings.Split(string(buf[:idx]), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, ErrMalformed
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, ErrMalformed
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
		return nil, 0, err
	}
	bodyLen := 0
	if cl := resp.Header("Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 || n > math.MaxInt-(idx+4) {
			return nil, 0, ErrMalformed
		}
		bodyLen = n
	}
	total := idx + 4 + bodyLen
	if len(buf) < total {
		return nil, 0, nil
	}
	if bodyLen > 0 {
		resp.Body = append([]byte(nil), buf[idx+4:total]...)
	}
	return resp, total, nil
}
