package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the tests check against.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runJSON runs the command line and decodes its last output line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	return res
}

// TestSmoke runs one round of every workload in both modes and checks
// that every metric BENCHMARK.json names prints with its unit, and that
// the paper-mode workloads lose no request at the default seed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(m.Workloads), len(specs))
	}
	for _, w := range m.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Fatal(err)
		}
		for trace, want := range [][]struct{ Name, Unit string }{m.EndToEnd, m.PerLayer} {
			res := runJSON(t, "--workload", w.Name, "--seed", "1", "--seconds", "0.1", "--trace", []string{"0", "1"}[trace])
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d", w.Name, trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, mw := range want {
				got, ok := res.Metrics[mw.Name]
				if !ok || got.Unit != mw.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", w.Name, trace, mw.Name, got, mw.Unit)
				}
			}
			if trace == 0 && w.Name != "failover_hybrid" && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac = %v, want 1", w.Name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestTracedRunExecutesSameProgram: wrapping every host in a timing node
// must not change what the simulation does — same events, same batch
// dispatch, same virtual outcome.
func TestTracedRunExecutesSameProgram(t *testing.T) {
	for _, sp := range specs {
		genEnd := sp.warmup + sp.timed
		plain := newSim(sp, 7, genEnd, false)
		traced := newSim(sp, 7, genEnd, true)
		for _, s := range []*sim{plain, traced} {
			s.runUntil(genEnd)
			s.drain()
		}
		if a, b := plain.c.Net.Executed(), traced.c.Net.Executed(); a != b {
			t.Errorf("%s: executed %d untraced, %d traced", sp.name, a, b)
		}
		if a, b := plain.c.Net.BatchHitRatio(), traced.c.Net.BatchHitRatio(); a != b {
			t.Errorf("%s: batch-hit ratio %v untraced, %v traced", sp.name, a, b)
		}
		if a, b := plain.outcome(), traced.outcome(); a != b {
			t.Errorf("%s: outcome differs\nuntraced %s\ntraced   %s", sp.name, a, b)
		}
		if plain.issued == 0 || traced.tr.spans[kindClient].pkts == 0 {
			t.Errorf("%s: nothing ran or nothing was traced", sp.name)
		}
	}
}

// TestRestartedHostStaysTraced: a restart re-attaches the bare host, so
// the tracer must re-wrap it or the instance's later packets go
// unmeasured.
func TestRestartedHostStaysTraced(t *testing.T) {
	sp, err := lookupSpec("failover")
	if err != nil {
		t.Fatal(err)
	}
	genEnd := sp.warmup + sp.timed
	s := newSim(sp, 1, genEnd, true)
	s.runUntil(sp.killEvery + sp.restartAfter + window) // slot 0 has restarted
	node := s.tr.nodes[s.c.Yoda[0].IP()]
	before := node.pkts
	s.runUntil(genEnd)
	if node.pkts == before {
		t.Fatalf("restarted instance received no traced packets after its restart")
	}
}

// TestOutcomeDependsOnSeed guards the digest: different seeds must reach
// different virtual outcomes, or equal digests would prove nothing.
func TestOutcomeDependsOnSeed(t *testing.T) {
	sp, err := lookupSpec("bulk")
	if err != nil {
		t.Fatal(err)
	}
	var outs []outcome
	for _, seed := range []int64{1, 2} {
		s := newSim(sp, seed, sp.warmup, false)
		s.runUntil(sp.warmup)
		outs = append(outs, s.outcome())
	}
	if outs[0].Hash == outs[1].Hash {
		t.Fatalf("seeds 1 and 2 reached the same digest %016x", outs[0].Hash)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestCountsDependOnSeedAlone: attempted and failed describe the seed's
// request stream once, so runs that fit different numbers of rounds, and
// traced runs, report the same counts as a single round.
func TestCountsDependOnSeedAlone(t *testing.T) {
	sp, err := lookupSpec("failover_hybrid")
	if err != nil {
		t.Fatal(err)
	}
	genEnd := sp.warmup + sp.timed
	s := newSim(sp, 3, genEnd, false)
	s.runUntil(genEnd)
	s.drain()
	wantA, wantF := s.outcome().counts()
	for _, args := range [][]string{
		{"--seconds", "0.1", "--trace", "0"},
		{"--seconds", "2", "--trace", "0"},
		{"--seconds", "0.1", "--trace", "1"},
	} {
		res := runJSON(t, append([]string{"--workload", sp.name, "--seed", "3"}, args...)...)
		if res.Attempted != wantA || res.Failed != wantF {
			t.Errorf("%v: attempted=%d failed=%d, one round gives %d and %d", args, res.Attempted, res.Failed, wantA, wantF)
		}
	}
	t.Logf("seed 3: %d attempted, %d failed", wantA, wantF)
}
