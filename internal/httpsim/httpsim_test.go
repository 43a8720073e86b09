package httpsim

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

func TestRequestMarshalParseRoundTrip(t *testing.T) {
	req := NewRequest("/index.html", "mysite.com")
	req.SetHeader("Cookie", "session=abc123; lang=en-GB")
	req.Body = []byte("payload")
	wire := req.Marshal()

	p := &RequestParser{}
	got, err := p.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d requests", len(got))
	}
	r := got[0]
	if r.Method != "GET" || r.Path != "/index.html" || r.Version != "HTTP/1.1" {
		t.Fatalf("request line: %+v", r)
	}
	if r.Header("host") != "mysite.com" {
		t.Errorf("Host = %q", r.Header("host"))
	}
	if r.Cookie("session") != "abc123" || r.Cookie("lang") != "en-GB" {
		t.Errorf("cookies: %q %q", r.Cookie("session"), r.Cookie("lang"))
	}
	if r.Cookie("missing") != "" {
		t.Errorf("missing cookie should be empty")
	}
	if string(r.Body) != "payload" {
		t.Errorf("body = %q", r.Body)
	}
}

func TestRequestParserIncremental(t *testing.T) {
	req := NewRequest("/a", "h")
	wire := req.Marshal()
	p := &RequestParser{}
	for i := 0; i < len(wire)-1; i++ {
		got, err := p.Feed(wire[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("request completed early at byte %d", i)
		}
	}
	got, err := p.Feed(wire[len(wire)-1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("expected completion on last byte, got %d", len(got))
	}
}

func TestRequestParserPipelined(t *testing.T) {
	var wire bytes.Buffer
	wire.Write(NewRequest("/1", "h").Marshal())
	wire.Write(NewRequest("/2", "h").Marshal())
	wire.Write(NewRequest("/3", "h").Marshal())
	p := &RequestParser{}
	got, err := p.Feed(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Path != "/1" || got[2].Path != "/3" {
		t.Fatalf("pipelined parse: %v", got)
	}
	if p.Buffered() != 0 {
		t.Fatalf("leftover bytes: %d", p.Buffered())
	}
}

func TestParseRequestHeaderPartial(t *testing.T) {
	r, err := ParseRequestHeader([]byte("GET /x HTTP/1.1\r\nHost: a\r\n"))
	if err != nil || r != nil {
		t.Fatalf("incomplete header: r=%v err=%v", r, err)
	}
	r, err = ParseRequestHeader([]byte("GET /x HTTP/1.1\r\nHost: a\r\n\r\nBODYBYTES"))
	if err != nil || r == nil {
		t.Fatalf("complete header: r=%v err=%v", r, err)
	}
	if r.Path != "/x" || r.Header("Host") != "a" {
		t.Fatalf("parsed: %+v", r)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"NOT-HTTP\r\n\r\n",
		"GET /x\r\n\r\n",
		"GET /x HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
	}
	for _, c := range cases {
		p := &RequestParser{}
		if _, err := p.Feed([]byte(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
	// Bad content length.
	p := &RequestParser{}
	if _, err := p.Feed([]byte("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")); err == nil {
		t.Error("no error for bad content-length")
	}
}

func TestHeaderTooLarge(t *testing.T) {
	p := &RequestParser{}
	junk := bytes.Repeat([]byte("A"), maxHeaderBytes+10)
	if _, err := p.Feed(junk); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := NewResponse(200, []byte("hello"))
	resp.SetHeader("X-Backend", "srv-1")
	wire := resp.Marshal()
	p := &ResponseParser{}
	got, err := p.Feed(wire)
	if err != nil || len(got) != 1 {
		t.Fatalf("parse: %v %v", got, err)
	}
	r := got[0]
	if r.StatusCode != 200 || r.Status != "OK" {
		t.Fatalf("status: %d %q", r.StatusCode, r.Status)
	}
	if string(r.Body) != "hello" {
		t.Fatalf("body: %q", r.Body)
	}
	if r.Header("x-backend") != "srv-1" {
		t.Fatalf("header: %q", r.Header("x-backend"))
	}
}

func TestResponseParserSplitBody(t *testing.T) {
	resp := NewResponse(200, bytes.Repeat([]byte("z"), 10000))
	wire := resp.Marshal()
	p := &ResponseParser{}
	half := len(wire) / 2
	got, err := p.Feed(wire[:half])
	if err != nil || len(got) != 0 {
		t.Fatalf("half feed: %v %v", got, err)
	}
	got, err = p.Feed(wire[half:])
	if err != nil || len(got) != 1 {
		t.Fatalf("full feed: %v %v", got, err)
	}
	if len(got[0].Body) != 10000 {
		t.Fatalf("body len %d", len(got[0].Body))
	}
}

func TestKeepAliveSemantics(t *testing.T) {
	r := NewRequest("/", "h")
	if !r.KeepAlive() {
		t.Error("HTTP/1.1 default should keep alive")
	}
	r.SetHeader("Connection", "close")
	if r.KeepAlive() {
		t.Error("Connection: close should not keep alive")
	}
	r10 := &Request{Method: "GET", Path: "/", Version: "HTTP/1.0", Headers: map[string]string{}}
	if r10.KeepAlive() {
		t.Error("HTTP/1.0 default should not keep alive")
	}
	r10.SetHeader("Connection", "keep-alive")
	if !r10.KeepAlive() {
		t.Error("HTTP/1.0 with keep-alive header should keep alive")
	}
}

func TestCanonicalHeaderNames(t *testing.T) {
	f := func(s string) bool {
		c := canonical(s)
		// Canonicalization must be idempotent.
		return canonical(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if canonical("content-length") != "Content-Length" {
		t.Errorf("canonical = %q", canonical("content-length"))
	}
	if canonical("x--y") != "X--Y" {
		t.Errorf("canonical double dash = %q", canonical("x--y"))
	}
}

func TestMarshalPreservesArbitraryBody(t *testing.T) {
	f := func(body []byte) bool {
		resp := NewResponse(200, body)
		p := &ResponseParser{}
		got, err := p.Feed(resp.Marshal())
		if err != nil || len(got) != 1 {
			return false
		}
		return bytes.Equal(got[0].Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- end-to-end over simulated TCP ---

type world struct {
	net    *netsim.Network
	client *Client
	server *Server
	srvHP  netsim.HostPort
}

func newWorld(seed int64, objects map[string][]byte) *world {
	n := netsim.New(seed)
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	srv := NewServer(sh, 80, MapHandler(objects), DefaultServerConfig())
	return &world{
		net:    n,
		client: NewClient(ch, DefaultClientConfig()),
		server: srv,
		srvHP:  netsim.HostPort{IP: sh.IP(), Port: 80},
	}
}

func TestClientServerFetch(t *testing.T) {
	w := newWorld(1, map[string][]byte{"/obj": bytes.Repeat([]byte("d"), 10240)})
	var res *FetchResult
	w.client.Get(w.srvHP, "/obj", func(r *FetchResult) { res = r })
	w.net.RunUntilIdle(100000)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("fetch error: %v", res.Err)
	}
	if len(res.Resp.Body) != 10240 {
		t.Fatalf("body len = %d", len(res.Resp.Body))
	}
	// Expected latency: handshake 1 RTT (60ms) + request/response ≥1 RTT +
	// 5ms processing. 10KB at IW10 fits one window, so ~125ms total.
	if res.Elapsed() < 120*time.Millisecond || res.Elapsed() > 200*time.Millisecond {
		t.Fatalf("elapsed = %v, want ~125ms", res.Elapsed())
	}
	if w.server.Requests != 1 {
		t.Fatalf("server requests = %d", w.server.Requests)
	}
}

func TestClientFetch404(t *testing.T) {
	w := newWorld(2, map[string][]byte{})
	var res *FetchResult
	w.client.Get(w.srvHP, "/missing", func(r *FetchResult) { res = r })
	w.net.RunUntilIdle(100000)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if res.Resp.StatusCode != 404 {
		t.Fatalf("status = %d", res.Resp.StatusCode)
	}
	if !strings.Contains(string(res.Resp.Body), "/missing") {
		t.Fatalf("404 body should name the object: %q", res.Resp.Body)
	}
}

func TestClientTimeoutOnDeadServer(t *testing.T) {
	w := newWorld(3, map[string][]byte{"/x": []byte("y")})
	w.server.Host().Detach()
	cfg := DefaultClientConfig()
	cfg.Timeout = 5 * time.Second
	cl := NewClient(w.client.host, cfg)
	var res *FetchResult
	cl.Get(w.srvHP, "/x", func(r *FetchResult) { res = r })
	w.net.RunFor(10 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != ErrHTTPTimeout || !res.TimedOut {
		t.Fatalf("err = %v timedout=%v", res.Err, res.TimedOut)
	}
	if res.Elapsed() != 5*time.Second {
		t.Fatalf("elapsed = %v, want the 5s timeout", res.Elapsed())
	}
}

func TestClientRetrySucceedsAfterServerRecovers(t *testing.T) {
	w := newWorld(4, map[string][]byte{"/x": []byte("y")})
	w.server.Host().Detach()
	// Reattach the server after 6s; first attempt times out at 5s, the
	// retry succeeds.
	w.net.Schedule(6*time.Second, func() { w.server.Host().Reattach() })
	cfg := DefaultClientConfig()
	cfg.Timeout = 5 * time.Second
	cfg.Retries = 1
	cl := NewClient(w.client.host, cfg)
	var res *FetchResult
	cl.Get(w.srvHP, "/x", func(r *FetchResult) { res = r })
	w.net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("retry should succeed: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if !res.TimedOut {
		t.Fatal("first attempt should be recorded as a timeout")
	}
}

func TestKeepAliveServesMultipleRequests(t *testing.T) {
	n := netsim.New(5)
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	srv := NewServer(sh, 80, MapHandler(map[string][]byte{
		"/1": []byte("one"), "/2": []byte("two"),
	}), DefaultServerConfig())
	_ = srv
	// Drive keep-alive at the TCP level directly.
	parser := &ResponseParser{}
	var bodies []string
	tcp.Dial(ch, netsim.HostPort{IP: sh.IP(), Port: 80}, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			c.Write(NewRequest("/1", "h").Marshal())
			c.Write(NewRequest("/2", "h").Marshal())
		},
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
			}
			if len(bodies) == 2 {
				c.Close()
			}
		},
	}, tcp.DefaultConfig())
	n.RunUntilIdle(100000)
	if len(bodies) != 2 || bodies[0] != "one" || bodies[1] != "two" {
		t.Fatalf("bodies = %v", bodies)
	}
	if srv.Requests != 2 {
		t.Fatalf("server requests = %d", srv.Requests)
	}
}

func TestBrowserLoadPage(t *testing.T) {
	objects := map[string][]byte{
		"/page.html": []byte("<html>"),
		"/a.css":     bytes.Repeat([]byte("c"), 5000),
		"/b.jpg":     bytes.Repeat([]byte("j"), 20000),
	}
	w := newWorld(6, objects)
	b := NewBrowser(w.client)
	var res *PageResult
	b.LoadPage(w.srvHP, "/page.html", []string{"/a.css", "/b.jpg"}, func(r *PageResult) { res = r })
	w.net.RunUntilIdle(1000000)
	if res == nil {
		t.Fatal("page never completed")
	}
	if res.Objects != 3 || res.Failed != 0 || res.Broken {
		t.Fatalf("page result: %+v", res)
	}
	if res.Elapsed() <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestServerConnectionCountTracksCloses(t *testing.T) {
	w := newWorld(7, map[string][]byte{"/x": []byte("y")})
	done := 0
	for i := 0; i < 5; i++ {
		w.client.Get(w.srvHP, "/x", func(r *FetchResult) { done++ })
	}
	w.net.RunUntilIdle(1000000)
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if w.server.ActiveConns != 0 {
		t.Fatalf("ActiveConns = %d after all closes", w.server.ActiveConns)
	}
}

func TestContentLengthOverflowIsMalformed(t *testing.T) {
	rp := &RequestParser{}
	if _, err := rp.Feed([]byte(overflowRequest + "x")); err != ErrMalformed {
		t.Fatalf("request: err = %v, want ErrMalformed", err)
	}
	sp := &ResponseParser{}
	if _, err := sp.Feed([]byte(overflowResponse + "x")); err != ErrMalformed {
		t.Fatalf("response: err = %v, want ErrMalformed", err)
	}
	// One byte below the overflow is a legal, if never-ending, body.
	head := "HTTP/1.1 200 OK\r\nContent-Length: "
	n := math.MaxInt - (len(head) + len("9223372036854775807") + 4)
	sp = &ResponseParser{}
	got, err := sp.Feed([]byte(head + strconv.Itoa(n) + "\r\n\r\nabc"))
	if err != nil || len(got) != 0 {
		t.Fatalf("largest legal length: %v %v", got, err)
	}
}

// The body must be a copy: TCP hands the receiver zero-copy slices of
// the sender's buffer, which the sender reuses once they are ACKed.
func TestParsedBodyDoesNotAliasInput(t *testing.T) {
	wire := NewResponse(200, bytes.Repeat([]byte("b"), 3000)).Marshal()
	p := &ResponseParser{}
	var got []*Response
	for off := 0; off < len(wire); off += 1000 {
		resps, err := p.Feed(wire[off:min(off+1000, len(wire))])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resps...)
	}
	if len(got) != 1 {
		t.Fatalf("got %d responses", len(got))
	}
	for i := range wire {
		wire[i] = 'X'
	}
	if !bytes.Equal(got[0].Body, bytes.Repeat([]byte("b"), 3000)) {
		t.Fatal("body changed when the input buffer was overwritten")
	}
}

// A malformed head stays in front of the stream: every later Feed fails
// the same way and Buffered keeps counting everything fed.
func TestMalformedHeadIsSticky(t *testing.T) {
	p := &RequestParser{}
	reqs, err := p.Feed([]byte("GET /a HTTP/1.1\r\n\r\nBAD\r\n\r\nGET /b HTTP/1.1\r\n\r\n"))
	if err != ErrMalformed || len(reqs) != 1 || reqs[0].Path != "/a" {
		t.Fatalf("first feed: %v %v", reqs, err)
	}
	if _, err := p.Feed([]byte("GET /c HTTP/1.1\r\n\r\n")); err != ErrMalformed {
		t.Fatalf("second feed: err = %v", err)
	}
	if want := len("BAD\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n"); p.Buffered() != want {
		t.Fatalf("buffered %d, want %d", p.Buffered(), want)
	}
}

// TestParsersMatchReferenceOnLargeInputs covers what the fuzzers' small
// inputs rarely reach: heads and bodies past maxHeaderBytes, where the
// request side reports ErrTooLarge and the response side does not.
func TestParsersMatchReferenceOnLargeInputs(t *testing.T) {
	bigBody := bytes.Repeat([]byte("0123456789"), 30000)
	bigHead := "X-Pad: " + strings.Repeat("p", maxHeaderBytes) + "\r\n"
	postBig := "POST /big HTTP/1.1\r\nContent-Length: " + strconv.Itoa(len(bigBody)) + "\r\n\r\n" + string(bigBody)
	reqInputs := []string{
		postBig + "GET /next HTTP/1.1\r\n\r\n",
		"GET /h HTTP/1.1\r\n" + bigHead + "\r\nGET /after HTTP/1.1\r\n\r\n",
		strings.Repeat("A", maxHeaderBytes+5) + "\r\n\r\n",
	}
	respInputs := []string{
		string(NewResponse(200, bigBody).Marshal()) + string(NewResponse(404, nil).Marshal()),
		"HTTP/1.1 200 OK\r\n" + bigHead + "Content-Length: 3\r\n\r\nabc",
		strings.Repeat("B", maxHeaderBytes+5),
	}
	for _, seed := range []uint32{1, 2, 3} {
		for _, in := range reqInputs {
			differential[*Request](t, []byte(in), seed, 40000, &RequestParser{}, &refRequestParser{})
		}
		for _, in := range respInputs {
			differential[*Response](t, []byte(in), seed, 40000, &ResponseParser{}, &refResponseParser{})
		}
	}
}

// Server.Conns keeps every accepted conn for its stats. Those stats must
// survive the conns releasing their send buffers at close, and the body
// the client parsed must not depend on the server's buffer.
func TestServerConnStatsSurviveClose(t *testing.T) {
	obj := bytes.Repeat([]byte("0123456789abcdef"), 16*1024)
	w := newWorld(6, map[string][]byte{"/big": obj})
	rng := w.net.Rand()
	w.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		return len(pkt.Payload) > 0 && rng.Float64() < 0.03
	})
	var res *FetchResult
	w.client.Get(w.srvHP, "/big", func(r *FetchResult) { res = r })
	w.net.RunUntilIdle(2_000_000)
	if res == nil || res.Err != nil || !bytes.Equal(res.Resp.Body, obj) {
		t.Fatalf("fetch: %+v", res)
	}
	conns := w.server.Conns()
	if len(conns) != 1 || conns[0].State() != tcp.StateClosed {
		t.Fatalf("server conns: %d", len(conns))
	}
	if conns[0].Retransmits == 0 || conns[0].BytesSent < uint64(len(obj)) {
		t.Fatalf("stats: %d retransmits, %d bytes sent", conns[0].Retransmits, conns[0].BytesSent)
	}
}
