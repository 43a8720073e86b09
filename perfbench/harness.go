package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
	"repro/internal/workload"
)

// Cluster shape shared by every workload.
const (
	nYoda     = 4
	nStore    = 3
	nBackends = 4
	// window is the virtual step the harness advances the loop by; the
	// scheduler depth is sampled once per window.
	window = 10 * time.Millisecond
	// drainMax bounds the wait for requests still open when the stream
	// stops: one client HTTP timeout plus slack, so every request
	// resolves one way or the other.
	drainMax = 31 * time.Second
)

// hybridSecret keys the hybrid derivation table.
const hybridSecret = 0x5eed5eed

// prng is splitmix64: the harness's own deterministic stream, kept apart
// from the simulation's RNG so the load it generates depends on --seed
// alone.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit draws uniformly from [0, 1).
func (r *prng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// counters is the program state the per-layer metrics are deltas of.
// Instances replaced by a restart fold their counters into retired so
// the sums survive the kill.
type counters struct {
	events                  uint64
	runs, batchRuns         uint64
	roundTrips, gets        uint64
	batchSets, batchRecords uint64
	storeTimeouts, partial  uint64
	memcacheOps             uint64
	commits, degraded       uint64
	aborted, skipped        uint64
	recovered, derived      uint64
	lookupMisses            uint64
	issued, rtx             uint64
}

func (c *counters) addInstance(in *core.Instance) {
	st := &in.Store().Stats
	c.roundTrips += st.RoundTrips
	c.gets += st.Gets
	c.batchSets += st.BatchSets
	c.batchRecords += st.BatchRecords
	c.storeTimeouts += st.Timeouts
	c.partial += st.PartialWrites
	b := &in.Barrier
	c.commits += b.Commits
	c.degraded += b.Degraded
	c.aborted += b.Aborted
	c.skipped += b.Skipped
	c.recovered += in.Recovered
	c.derived += in.DerivedRecoveries
	c.lookupMisses += in.LookupMisses
}

// sim is one assembled cluster plus the load generator and checker
// driving it.
type sim struct {
	sp     *spec
	c      *cluster.Cluster
	instCf core.Config
	storCf tcpstore.Config

	clients     []*httpsim.Client
	clientHosts []*netsim.Host
	vips        []netsim.HostPort
	paths       []string
	bodies      map[string][]byte
	rng         prng

	genEnd  time.Duration // virtual time the stream stops issuing
	timedAt time.Duration // requests issued from here on are timed

	// Outcomes. okTimed counts byte-exact 200s among timed requests;
	// badBody counts 200s whose body differed from the object served —
	// a correctness failure, not just a failed request.
	issued, resolved, ok, okTimed, badBody uint64
	timeouts, resets, connFails, non200    uint64
	rtx                                    uint64
	kills                                  int
	lat                                    []time.Duration // virtual latency of every ok request
	hash                                   uint64          // FNV-1a over (id, status, latency) in completion order

	retired    counters
	pendingMax int

	tr *tracer // nil for untraced runs
}

// newSim builds the cluster for sp from seed and arms the load stream
// and the fault schedule for genEnd of virtual time. With trace set
// every host is wrapped in a timing node (see trace.go).
func newSim(sp *spec, seed int64, genEnd time.Duration, trace bool) *sim {
	s := &sim{
		sp:      sp,
		c:       cluster.New(seed),
		instCf:  core.DefaultConfig(),
		storCf:  tcpstore.DefaultConfig(),
		bodies:  make(map[string][]byte, sp.objects),
		rng:     prng{s: uint64(seed)*0x2545f4914f6cdd1d + 1},
		genEnd:  genEnd,
		timedAt: sp.warmup,
		hash:    14695981039346656037,
	}
	if sp.hybrid {
		s.c.EnableHybrid(hybridSecret)
	}
	for i := 0; i < sp.objects; i++ {
		p := fmt.Sprintf("/obj%d", i)
		s.paths = append(s.paths, p)
		s.bodies[p] = workload.SynthBody(p, sp.objSize)
	}
	names := make([]string, nBackends)
	for i := range names {
		names[i] = fmt.Sprintf("srv-%d", i+1)
		s.c.AddBackend(names[i], s.bodies, httpsim.DefaultServerConfig())
	}
	s.c.AddStoreServers(nStore, memcache.DefaultSimServerConfig())
	s.c.AddYodaN(nYoda, s.instCf, s.storCf)
	cfg := controller.DefaultConfig()
	cfg.ScaleInterval = 0 // fixed fleet: the benchmark measures a 4-instance cluster
	ct := controller.New(s.c, cfg)
	for i := 0; i < sp.vips; i++ {
		vip := s.c.AddVIP(fmt.Sprintf("svc%d", i))
		ct.SetPolicy(vip, s.c.SimpleSplitRules(names...), nil)
		s.vips = append(s.vips, netsim.HostPort{IP: vip, Port: 80})
	}
	ct.Start()
	for i := 0; i < sp.clients; i++ {
		h := s.c.ClientHost()
		s.clientHosts = append(s.clientHosts, h)
		s.clients = append(s.clients, httpsim.NewClient(h, httpsim.DefaultClientConfig()))
	}
	if trace {
		s.tr = newTracer(s)
	}
	s.c.Net.Schedule(s.arrival(0), s.arrive)
	if sp.killEvery > 0 {
		s.c.Net.Schedule(sp.killEvery, s.kill)
	}
	return s
}

// arrival is the send time of request i: slot i of a grid at the
// workload's rate, jittered uniformly within its slot. Every window of
// the stream carries the same number of requests, whatever the seed.
func (s *sim) arrival(i uint64) time.Duration {
	return time.Duration((float64(i) + s.rng.unit()) / s.sp.rate * float64(time.Second))
}

// arrive issues one request and schedules the next arrival: an open
// loop driven by the simulation's own timers.
func (s *sim) arrive() {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	net := s.c.Net
	if net.Now() >= s.genEnd {
		return
	}
	id := s.issued
	s.issued++
	timed := net.Now() >= s.timedAt
	path := s.paths[s.rng.intn(len(s.paths))]
	vip := s.vips[s.rng.intn(len(s.vips))]
	s.clients[s.rng.intn(len(s.clients))].Get(vip, path, func(r *httpsim.FetchResult) {
		s.done(id, path, timed, r)
	})
	net.Schedule(s.arrival(s.issued)-net.Now(), s.arrive)
	if s.tr != nil {
		s.tr.self += time.Since(t0)
	}
}

// done checks one outcome and folds it into the counters. The result is
// read here and then dropped: it holds the body and the client conn.
func (s *sim) done(id uint64, path string, timed bool, r *httpsim.FetchResult) {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	s.resolved++
	status := 0
	switch {
	case errors.Is(r.Err, httpsim.ErrHTTPTimeout):
		s.timeouts++
	case errors.Is(r.Err, httpsim.ErrConnReset):
		s.resets++
	case r.Err != nil:
		s.connFails++
	default:
		status = r.Resp.StatusCode
		if status != 200 {
			s.non200++
		}
	}
	good := status == 200 && bytes.Equal(r.Resp.Body, s.bodies[path])
	if status == 200 && !good {
		s.badBody++
		status = -1
	}
	lat := r.Finished - r.Started
	if good {
		s.ok++
		if timed {
			s.okTimed++
		}
		s.lat = append(s.lat, lat)
	}
	if r.Conn != nil {
		s.rtx += uint64(r.Conn.Retransmits)
	}
	for _, v := range [3]uint64{id, uint64(status), uint64(lat)} {
		for k := 0; k < 8; k++ {
			s.hash = (s.hash ^ (v >> (8 * k) & 0xff)) * 1099511628211
		}
	}
	if s.tr != nil {
		d := time.Since(t0)
		s.tr.self += d
		s.tr.nested += d
	}
}

// kill fails the next instance in round-robin order and schedules its
// restart; the controller's monitor detects both.
func (s *sim) kill() {
	net := s.c.Net
	if net.Now() >= s.genEnd {
		return
	}
	slot := s.kills % nYoda
	s.kills++
	s.c.KillYoda(slot)
	net.Schedule(s.sp.restartAfter, func() {
		s.retired.addInstance(s.c.Yoda[slot])
		in := s.c.RestartYoda(slot, s.instCf, s.storCf)
		if s.tr != nil {
			s.tr.rewrap(in.Host())
		}
	})
	net.Schedule(s.sp.killEvery, s.kill)
}

// runUntil advances the loop to virtual time t in windows, sampling the
// scheduler depth after each.
func (s *sim) runUntil(t time.Duration) {
	net := s.c.Net
	for net.Now() < t {
		step := window
		if rest := t - net.Now(); rest < step {
			step = rest
		}
		net.RunFor(step)
		if p := net.Pending(); p > s.pendingMax {
			s.pendingMax = p
		}
	}
}

// drain runs past the end of the stream until every issued request has
// resolved, or drainMax has passed.
func (s *sim) drain() {
	limit := s.genEnd + drainMax
	for s.resolved < s.issued && s.c.Net.Now() < limit {
		s.runUntil(s.c.Net.Now() + window)
	}
}

// snapshot reads the counters the per-layer metrics are deltas of.
func (s *sim) snapshot() counters {
	c := s.retired
	net := s.c.Net
	c.events = net.Executed()
	c.runs, c.batchRuns = net.Runs, net.BatchRuns
	for _, in := range s.c.Yoda {
		c.addInstance(in)
	}
	for _, srv := range s.c.StoreServers {
		c.memcacheOps += srv.Ops
	}
	c.issued, c.rtx = s.issued, s.rtx
	return c
}

// outcome is the virtual result of a round: identical for every round of
// one seed, whatever the wall clock did.
type outcome struct {
	Events uint64
	Issued uint64
	OK     uint64
	// Failures by kind: HTTP timeout, reset, other connection failure,
	// status other than 200.
	Timeouts, Resets, ConnFails, Non200 uint64
	P50, P99                            time.Duration
	Hash                                uint64
	BatchHit                            float64
}

func (s *sim) outcome() outcome {
	lat := append([]time.Duration(nil), s.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return outcome{
		Events:   s.c.Net.Executed(),
		Issued:   s.issued,
		OK:       s.ok,
		Timeouts: s.timeouts, Resets: s.resets, ConnFails: s.connFails, Non200: s.non200,
		P50:      quantile(lat, 0.50),
		P99:      quantile(lat, 0.99),
		Hash:     s.hash,
		BatchHit: s.c.Net.BatchHitRatio(),
	}
}

// counts is the seed's request stream as the result line reports it:
// requests issued and requests that did not return a byte-exact 200.
// Every round of a run replays the same stream and is checked to reach
// this outcome, so the counts depend on the seed alone and not on how
// many rounds the wall clock allowed.
func (o outcome) counts() (attempted, failed uint64) {
	return o.Issued, o.Issued - o.OK
}

func (o outcome) String() string {
	return fmt.Sprintf("events=%d issued=%d ok=%d timeouts=%d resets=%d conn_failed=%d non200=%d virt_p50_ms=%.3f virt_p99_ms=%.3f batch_hit=%.6f digest=%016x",
		o.Events, o.Issued, o.OK, o.Timeouts, o.Resets, o.ConnFails, o.Non200, ms(o.P50), ms(o.P99), o.BatchHit, o.Hash)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
