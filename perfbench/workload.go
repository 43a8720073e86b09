package main

import (
	"fmt"
	"time"
)

// spec is one workload: a fixed open-loop request stream in virtual time
// against the real cluster stack.
type spec struct {
	name string

	objSize int     // bytes per object
	objects int     // distinct objects (paths) served by every backend
	rate    float64 // virtual requests per second, on a jittered grid
	vips    int
	clients int // simulated client hosts the stream is spread over
	hybrid  bool

	// killEvery kills one Yoda instance (round robin) every killEvery of
	// virtual time; restartAfter later the same slot restarts. Zero
	// disables faults.
	killEvery    time.Duration
	restartAfter time.Duration

	// A run repeats identical rounds. Each round builds the cluster and
	// runs warmup of virtual traffic untimed (set-up), then timed more
	// with the clock running, then drains. The work of a round is fixed,
	// so its metrics compare across commits however many rounds a run
	// fits. Rounds stay short because live heap grows with every request
	// served (see NOTES.md).
	warmup, timed time.Duration
}

// specs are the workloads; BENCHMARK.json at the repository root says
// why each was chosen.
var specs = []*spec{
	{
		name:    "churn",
		objSize: 2 << 10, objects: 64, rate: 2000, vips: 4, clients: 64,
		warmup: 1500 * time.Millisecond, timed: 3 * time.Second,
	},
	{
		name:    "bulk",
		objSize: 256 << 10, objects: 8, rate: 100, vips: 1, clients: 16,
		warmup: 500 * time.Millisecond, timed: 1500 * time.Millisecond,
	},
	{
		name:    "failover",
		objSize: 16 << 10, objects: 32, rate: 1000, vips: 1, clients: 64,
		killEvery: 1500 * time.Millisecond, restartAfter: time.Second,
		warmup: 1750 * time.Millisecond, timed: 1750 * time.Millisecond,
	},
	{
		name:    "failover_hybrid",
		objSize: 16 << 10, objects: 32, rate: 1000, vips: 1, clients: 64, hybrid: true,
		killEvery: 1500 * time.Millisecond, restartAfter: time.Second,
		warmup: 1750 * time.Millisecond, timed: 1750 * time.Millisecond,
	},
}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
