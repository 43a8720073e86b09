// Command perfbench is the repository's end-to-end benchmark. It drives
// the real cluster stack (4 Yoda instances, 3 memcached servers, 4
// backends, the controller's monitor, one event loop) with a fixed,
// seeded open-loop request stream in virtual time, checks every response
// byte for byte, and prints what the simulation cost in wall time and
// memory.
//
//	perfbench --workload churn --seed 1 --seconds 25 --trace 0
//
// A run repeats identical rounds of fixed work for --seconds. --trace 0
// prints the end-to-end metrics; --trace 1 runs the rounds in pairs,
// untraced and then with every host wrapped in a timing node, checks
// that both executed the same program, and prints the per-layer metrics.
// The last line of standard output is one JSON object; the lines before
// it record the configuration and the virtual outcome, which are check
// values, not metrics. NOTES.md describes the metrics and the baseline
// findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of the request stream and the simulation")
	seconds := fs.Float64("seconds", 10, "wall time to keep starting rounds for")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*wl)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace)
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	genEnd := sp.warmup + sp.timed
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d %s virtual_warmup_s=%g virtual_stream_s=%g\n",
		sp.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(),
		sp.warmup.Seconds(), genEnd.Seconds())
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var res result
	if *trace == 0 {
		res = endToEnd(sp, *seed, genEnd, deadline, stdout)
	} else {
		res = perLayer(sp, *seed, genEnd, deadline, stdout)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// round builds and warms one cluster, runs the timed phase on it, reads
// what the metrics need, and drops the cluster.
func round(sp *spec, seed int64, genEnd time.Duration, trace bool) *roundResult {
	runtime.GC() // start from the same heap whatever ran before
	t0 := time.Now()
	s := newSim(sp, seed, genEnd, trace)
	s.runUntil(sp.warmup)
	r := &roundResult{setup: time.Since(t0).Seconds()}
	r.p = measure(s)
	r.o = s.outcome()
	r.issued, r.ok, r.okTimed, r.bad = s.issued, s.ok, s.okTimed, s.badBody
	r.pendingMax = s.pendingMax
	r.affinity = s.c.L4.AffinityCount()
	for _, in := range s.c.Yoda {
		if in.Host().Alive() {
			r.flowsLive += in.FlowCount()
		}
	}
	if s.tr != nil {
		r.spans, r.self = s.tr.spans, s.tr.self
	}
	return r
}

// roundResult is what one round measured.
type roundResult struct {
	setup                    float64
	p                        phase
	o                        outcome
	issued, ok, okTimed, bad uint64
	pendingMax               int
	affinity, flowsLive      int
	spans                    [nKinds]span
	self                     time.Duration
}

// phase is what one timed phase measured.
type phase struct {
	wall, cpu           time.Duration
	c0, c1              counters
	kills               int
	heapStart, heapEnd  uint64
	mallocs, allocBytes uint64
	gcCPU, busyCPU      float64
}

// measure runs the timed phase — the rest of the stream plus the drain —
// and reads the runtime around it. Allocation, GC and heap figures cover
// the stream; the counters cover the drain too.
func measure(s *sim) phase {
	var p phase
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapStart = ms.HeapAlloc
	mallocs0, alloc0 := ms.Mallocs, ms.TotalAlloc
	gc0, busy0 := cpuSeconds()
	p.c0 = s.snapshot()
	kills0 := s.kills
	s.pendingMax = 0
	if s.tr != nil {
		s.tr.reset()
	}

	t0, cpu0 := time.Now(), procCPU()
	s.runUntil(s.genEnd)
	stream, streamCPU := time.Since(t0), procCPU()-cpu0

	// Live heap at the end of the stream, a fixed virtual instant, with
	// the clock stopped. The forced collection also closes the GC CPU
	// accounting window.
	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocBytes = ms.Mallocs-mallocs0, ms.TotalAlloc-alloc0
	runtime.GC()
	gc1, busy1 := cpuSeconds()
	p.gcCPU, p.busyCPU = gc1-gc0, busy1-busy0
	runtime.ReadMemStats(&ms)
	p.heapEnd = ms.HeapAlloc

	t1, cpu1 := time.Now(), procCPU()
	s.drain()
	p.wall = stream + time.Since(t1)
	p.cpu = streamCPU + procCPU() - cpu1
	p.c1 = s.snapshot()
	p.kills = s.kills - kills0
	runtime.KeepAlive(s)
	return p
}

// cpuSeconds reads the runtime's GC CPU and busy (non-idle) CPU totals.
// They are updated at GC boundaries, which measure brackets with forced
// collections.
func cpuSeconds() (gc, busy float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64() - samples[2].Value.Float64()
}

// checkOutcome compares a round's virtual outcome with the first
// round's: every round of one seed must reach the same one.
func checkOutcome(w io.Writer, first *outcome, r *roundResult, label string) bool {
	if *first == (outcome{}) {
		*first = r.o
		fmt.Fprintf(w, "# check %s\n", r.o)
		return true
	}
	if r.o != *first {
		fmt.Fprintf(w, "# FAIL %s round reached another virtual outcome: %s\n", label, r.o)
		return false
	}
	return true
}

// minRounds is the fewest rounds an untraced run makes, so that the
// same-seed outcome check always compares two.
const minRounds = 2

// endToEnd is the untraced run: rounds of set-up plus timed phase until
// the deadline, reported as medians.
func endToEnd(sp *spec, seed int64, genEnd time.Duration, deadline time.Time, stdout io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var first outcome
	var setup, rps, heap, okFrac []float64
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		r := round(sp, seed, genEnd, false)
		res.Correct = checkOutcome(stdout, &first, r, "untraced") && r.bad == 0 && res.Correct
		setup = append(setup, r.setup)
		rps = append(rps, float64(r.okTimed)/r.p.wall.Seconds())
		heap = append(heap, float64(r.p.heapEnd)/(1<<20))
		okFrac = append(okFrac, float64(r.ok)/float64(r.issued))
		fmt.Fprintf(stdout, "# round %d setup_s=%.4f req_per_s=%.1f heap_live_MB=%.2f cpu_per_wall=%.3f\n", i, setup[i], rps[i], heap[i], r.p.cpu.Seconds()/r.p.wall.Seconds())
	}
	res.Attempted, res.Failed = first.counts()
	res.Metrics["req_per_s"] = metric{median(rps), "1/s"}
	res.Metrics["heap_live_MB"] = metric{median(heap), "MB"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["ok_frac"] = metric{median(okFrac), "ratio"}
	return res
}

// perLayer runs pairs of rounds, untraced then traced, until the
// deadline, checks that every round executed the same program, and
// reports the median of each per-layer metric over the pairs.
func perLayer(sp *spec, seed int64, genEnd time.Duration, deadline time.Time, stdout io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var first outcome
	samples := map[string][]float64{}
	units := map[string]string{}
	var last *roundResult
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		ru := round(sp, seed, genEnd, false)
		rt := round(sp, seed, genEnd, true)
		for _, lr := range []struct {
			label string
			r     *roundResult
		}{{"untraced", ru}, {"traced", rt}} {
			res.Correct = checkOutcome(stdout, &first, lr.r, lr.label) && lr.r.bad == 0 && res.Correct
		}
		for k, m := range layerMetrics(ru, rt) {
			samples[k] = append(samples[k], m.Value)
			units[k] = m.Unit
		}
		last = rt
	}
	res.Attempted, res.Failed = first.counts()
	for k, v := range samples {
		res.Metrics[k] = metric{median(v), units[k]}
	}
	printSpans(stdout, last)
	return res
}

// layerMetrics derives the per-layer metrics of one pair: host spans and
// harness self time from the traced round, everything else from the
// untraced one. Counts are per request issued in the timed phase.
func layerMetrics(ru, rt *roundResult) map[string]metric {
	pu, pt := &ru.p, &rt.p
	d := func(f func(c *counters) uint64) float64 { return float64(f(&pu.c1) - f(&pu.c0)) }
	n := d(func(c *counters) uint64 { return c.issued })
	per := func(x float64) float64 { return x / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	events := d(func(c *counters) uint64 { return c.events })
	commits := d(func(c *counters) uint64 { return c.commits })
	skipped := d(func(c *counters) uint64 { return c.skipped })
	attempts := commits + skipped + d(func(c *counters) uint64 { return c.degraded + c.aborted })
	var hostBusy time.Duration
	for k := range rt.spans {
		hostBusy += rt.spans[k].busy
	}
	m := map[string]metric{
		"netsim.events_per_req":          {per(events), "count"},
		"netsim.ns_per_event":            {float64(pu.wall.Nanoseconds()) / events, "ns"},
		"netsim.pending_max":             {float64(ru.pendingMax), "count"},
		"netsim.batch_hit_ratio":         {ratio(d(func(c *counters) uint64 { return c.batchRuns }), d(func(c *counters) uint64 { return c.runs })), "ratio"},
		"netsim.unattributed_ns_per_req": {per(float64((pt.wall - hostBusy - rt.self).Nanoseconds())), "ns"},

		"tcpstore.roundtrips_per_req":  {per(d(func(c *counters) uint64 { return c.roundTrips })), "count"},
		"tcpstore.gets_per_req":        {per(d(func(c *counters) uint64 { return c.gets })), "count"},
		"tcpstore.records_per_batch":   {ratio(d(func(c *counters) uint64 { return c.batchRecords }), d(func(c *counters) uint64 { return c.batchSets })), "count"},
		"tcpstore.timeouts":            {d(func(c *counters) uint64 { return c.storeTimeouts }), "count"},
		"tcpstore.partial_writes":      {d(func(c *counters) uint64 { return c.partial }), "count"},
		"memcache.ops_per_req":         {per(d(func(c *counters) uint64 { return c.memcacheOps })), "count"},
		"core.barrier_commits_per_req": {per(commits), "count"},
		"core.barrier_skip_frac":       {ratio(skipped, attempts), "ratio"},

		"core.recovered_per_kill":   {ratio(d(func(c *counters) uint64 { return c.recovered }), float64(pu.kills)), "count"},
		"core.derived_recoveries":   {d(func(c *counters) uint64 { return c.derived }), "count"},
		"core.lookup_misses":        {d(func(c *counters) uint64 { return c.lookupMisses }), "count"},
		"core.flows_live_end":       {float64(ru.flowsLive), "count"},
		"l4lb.affinity_entries_end": {float64(ru.affinity), "count"},
		"tcp.client_rtx_per_req":    {per(d(func(c *counters) uint64 { return c.rtx })), "count"},

		"runtime.allocs_per_req":        {per(float64(pu.mallocs)), "count"},
		"runtime.alloc_B_per_req":       {per(float64(pu.allocBytes)), "B"},
		"runtime.gc_cpu_frac":           {ratio(pu.gcCPU, pu.busyCPU), "ratio"},
		"runtime.heap_growth_B_per_req": {per(float64(pu.heapEnd) - float64(pu.heapStart)), "B"},

		"bench.self_ns_per_req":     {per(float64(rt.self.Nanoseconds())), "ns"},
		"bench.trace_overhead_frac": {pt.wall.Seconds()/pu.wall.Seconds() - 1, "ratio"},
	}
	for k := range rt.spans {
		sp := &rt.spans[k]
		m[kindNames[k]+"busy_ns_per_req"] = metric{per(float64(sp.busy.Nanoseconds())), "ns"}
		m[kindNames[k]+"pkts_per_req"] = metric{per(float64(sp.pkts)), "count"}
	}
	yoda := &rt.spans[kindYoda]
	m["core.batch_frac"] = metric{ratio(float64(yoda.batched), float64(yoda.pkts)), "ratio"}
	return m
}

// printSpans ranks the host spans of a traced round.
func printSpans(w io.Writer, r *roundResult) {
	idx := []int{kindYoda, kindMemcache, kindBackend, kindClient}
	sort.Slice(idx, func(i, j int) bool { return r.spans[idx[i]].busy > r.spans[idx[j]].busy })
	wall := r.p.wall.Seconds()
	for _, k := range idx {
		fmt.Fprintf(w, "# span %-16s %5.1f%% of traced wall\n", strings.TrimRight(kindNames[k], "._"), 100*r.spans[k].busy.Seconds()/wall)
	}
	fmt.Fprintf(w, "# span %-16s %5.1f%% of traced wall\n", "bench self", 100*r.self.Seconds()/wall)
}

// procCPU is the process's user plus system CPU time. A round whose CPU
// time falls short of its wall time was descheduled: the round line
// prints the ratio so a noisy machine shows.
func procCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
