package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/parallel"
	"mimdmap/internal/service"
	"mimdmap/internal/topology"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: a client sends its next request only after the previous
// one answered.
type workload struct {
	name string
	// build generates the workload's instances from the seed alone. quick
	// shrinks instances that would make the package test slow.
	build func(seed int64, quick bool) (*suite, error)
	// warmups is the number of untimed solves that end set-up, so caches
	// the loop relies on are filled before timing.
	warmups int
	// minOps is the number of operations (per client) the measured loop
	// runs at least, however short --seconds is. Allocation is measured
	// over exactly these, so it repeats at a fixed seed.
	minOps, quickMinOps int
	// checkEvery samples every n-th operation for the independent
	// total-time check against a freshly built evaluator.
	checkEvery int
	// window is the number of consecutive operations in a timing window
	// (see speedMetrics), or 0 to time the whole run. Only paper-tables
	// uses windows: one pass over its instances is short (~0.1 s) and holds
	// >200 samples. A pass of search-heavy's 64 instances holds too few
	// for a p95, and its latency varies so much with the request seed that
	// the fastest of several passes measured the draw, not the host; one
	// large-cold operation is a pass; serve-mix's two clients are not
	// ordered in time.
	window int
	// traceOps and wireOps size the traced run: operations decomposed
	// layer by layer, and the first wireOps of them also sent to mapserve.
	traceOps, wireOps int
	// serve selects the HTTP loop against a mapserve process instead of
	// the in-process loop.
	serve bool
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []*workload{
	{name: "paper-tables", build: paperTables, warmups: 38, minOps: 608, quickMinOps: 38, checkEvery: 8, window: paperMachines * instancesPerMachine, traceOps: 76, wireOps: 76},
	{name: "large-cold", build: largeCold, warmups: 3, minOps: 40, quickMinOps: 2, checkEvery: 10, traceOps: 20, wireOps: 2},
	{name: "search-heavy", build: searchHeavy, warmups: 4, minOps: 400, quickMinOps: 10, checkEvery: 16, traceOps: 50, wireOps: 50},
	{name: "serve-mix", build: servePool, warmups: 3, minOps: 1000, quickMinOps: 20, checkEvery: 8, traceOps: 50, wireOps: 50, serve: true},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Seed streams. Every random input derives from the run seed through
// parallel.DeriveSeed on its own stream, so instances, request seeds,
// warm-up requests and perturbations never share a generator.
const (
	instanceStream = 0
	topologyStream = 1 << 16
	warmStream     = 1 << 20
	opStream       = 1 << 21
	perturbStream  = 1 << 22
	clientStream   = 1 << 24 // serve-mix client c uses (c+1)·clientStream + n
)

// deriveSeed is parallel.DeriveSeed, kept off 0 (which a Request reads
// as "use the default seed").
func deriveSeed(seed int64, stream int) int64 {
	if s := parallel.DeriveSeed(seed, stream); s != 0 {
		return s
	}
	return 1
}

// machine is one target machine. spec is the topology spec requests name
// it by, or "" when it travels as a graph; build constructs it again, for
// the traced run to time.
type machine struct {
	spec  string
	build func() *graph.System
	sys   *graph.System
}

func specMachine(spec string) (machine, error) {
	sys, err := topology.ByName(spec, nil)
	if err != nil {
		return machine{}, err
	}
	build := func() *graph.System {
		sys, _ := topology.ByName(spec, nil) // the spec parsed above
		return sys
	}
	return machine{spec: spec, build: build, sys: sys}, nil
}

// job is one mapping request, in the form both the in-process loop and
// the wire client send.
type job struct {
	prob *graph.Problem
	text string            // prob in the text format; filled where the wire needs it
	clus *graph.Clustering // nil: the request names the "random" clusterer
	mach machine
	// refiner and the Starts, Workers and MaxRefinements fields of opts
	// are the request's search settings.
	refiner string
	opts    core.Options
	noCache bool
	seed    int64
}

// request is the job as a service request.
func (j *job) request() *service.Request {
	req := &service.Request{Problem: j.prob, Refiner: j.refiner, Seed: j.seed, NoCache: j.noCache, Options: j.opts}
	if j.mach.spec != "" {
		req.Topology = j.mach.spec
	} else {
		req.System = j.mach.sys
	}
	if j.clus != nil {
		req.Clustering = j.clus
	} else {
		req.Clusterer = "random"
	}
	return req
}

// suite is a workload's generated instance set. Operation i solves base
// instance i mod len(base) under its own request seed, so every operation
// misses the response cache.
type suite struct {
	seed int64
	base []job
}

func (s *suite) op(i int) job {
	j := s.base[i%len(s.base)]
	j.seed = deriveSeed(s.seed, opStream+i)
	return j
}

func (s *suite) warmup(k int) job {
	j := s.base[k%len(s.base)]
	j.seed = deriveSeed(s.seed, warmStream+k)
	return j
}

// instancesPerMachine is how many Table-style instances paper-tables
// generates for each of its paperMachines machines. One per machine left
// the run-to-run spread across seeds dominated by which instances a seed
// drew.
const (
	paperMachines       = 38
	instancesPerMachine = 8
)

// paperTables is the 38 machines of the paper's Tables 1–3 with Table-style
// instances on each (np = 4·ns clamped to [30,300], random clustering).
// Operation i runs on machine i mod 38.
func paperTables(seed int64, _ bool) (*suite, error) {
	var machines []machine
	var specs []string
	for _, d := range []int{2, 3, 3, 4, 4, 4, 5, 5, 3, 4} {
		specs = append(specs, fmt.Sprintf("hypercube-%d", d))
	}
	for _, sh := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {2, 5}, {3, 4}, {4, 4}, {3, 6}, {4, 5}, {5, 5}, {4, 8}, {5, 8}} {
		specs = append(specs, fmt.Sprintf("mesh-%dx%d", sh[0], sh[1]))
	}
	for _, spec := range specs {
		m, err := specMachine(spec)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	// Table 3's sparse random machines (spanning tree + 8% extra links)
	// have no spec and travel as graphs. Their sizes are spread evenly over
	// 4–40 rather than drawn from the seed, so every seed offers the same
	// amount of work; only their links are random.
	for i := 0; i < 17; i++ {
		ns := 4 + (36*i+8)/16
		topoSeed := deriveSeed(seed, topologyStream+i)
		build := func() *graph.System {
			return topology.Random(ns, 0.08, rand.New(rand.NewSource(topoSeed)))
		}
		machines = append(machines, machine{build: build, sys: build()})
	}
	if len(machines) != paperMachines {
		return nil, fmt.Errorf("paper-tables has %d machines, want %d", len(machines), paperMachines)
	}
	s := &suite{seed: seed}
	for k := 0; k < instancesPerMachine; k++ {
		for i, m := range machines {
			prob, clus, err := gen.TableInstance(m.sys.NumNodes(), deriveSeed(seed, instanceStream+k*len(machines)+i))
			if err != nil {
				return nil, err
			}
			s.base = append(s.base, job{prob: prob, clus: clus, mach: m, opts: core.Options{Workers: 1}})
		}
	}
	return s, nil
}

// largeCold is one np=2000 random DAG on a 128-processor mesh. Requests
// set NoCache: each retained response would hold several np×np matrices
// (~100 MB), so a 256-entry response cache of them would not fit in memory.
func largeCold(seed int64, quick bool) (*suite, error) {
	np := 2000
	if quick {
		np = 300
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, instanceStream)))
	prob, err := gen.Random(gen.RandomConfig{
		Tasks:         np,
		EdgeProb:      3.0 / float64(np),
		MinTaskSize:   1,
		MaxTaskSize:   20,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 5,
		Connected:     true,
	}, rng)
	if err != nil {
		return nil, err
	}
	m, err := specMachine("mesh-8x16")
	if err != nil {
		return nil, err
	}
	clus, err := (&cluster.Random{Rand: rng}).Cluster(prob, m.sys.NumNodes())
	if err != nil {
		return nil, err
	}
	return &suite{seed: seed, base: []job{{prob: prob, clus: clus, mach: m, opts: core.Options{Workers: 1}, noCache: true}}}, nil
}

// searchInstances is how many mesh-5x8 instances search-heavy cycles
// through; a single instance made the per-seed figures depend on that one
// instance's search landscape.
const searchInstances = 64

// searchHeavy is Table 2's mesh-5x8 machine (ns=40) with Table-style
// instances (np=160) under the adaptive portfolio: two chains, two
// workers, a 2000-trial budget.
func searchHeavy(seed int64, _ bool) (*suite, error) {
	m, err := specMachine("mesh-5x8")
	if err != nil {
		return nil, err
	}
	opts := core.Options{Starts: 2, Workers: 2, MaxRefinements: 2000}
	s := &suite{seed: seed}
	for i := 0; i < searchInstances; i++ {
		prob, clus, err := gen.TableInstance(m.sys.NumNodes(), deriveSeed(seed, instanceStream+i))
		if err != nil {
			return nil, err
		}
		s.base = append(s.base, job{prob: prob, clus: clus, mach: m, refiner: "portfolio", opts: opts})
	}
	return s, nil
}

// servePoolSize is the number of problems in serve-mix's pool, a third on
// each machine.
const servePoolSize = 96

// servePool is serve-mix's problem pool: Table-size problems on three
// machines, clustered by the server's "random" clusterer.
func servePool(seed int64, _ bool) (*suite, error) {
	var machines []machine
	for _, spec := range []string{"hypercube-5", "mesh-4x4", "mesh-5x8"} {
		m, err := specMachine(spec)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	s := &suite{seed: seed}
	for i := 0; i < servePoolSize; i++ {
		m := machines[i%len(machines)]
		prob, _, err := gen.TableInstance(m.sys.NumNodes(), deriveSeed(seed, instanceStream+i))
		if err != nil {
			return nil, err
		}
		s.base = append(s.base, job{prob: prob, text: problemText(prob), mach: m, opts: core.Options{Workers: 1}})
	}
	return s, nil
}

// perturbed returns a structurally different copy of p: a tenth of the
// task sizes and edge weights redrawn. The task count is kept, so an
// explicit clustering still covers the result.
func perturbed(p *graph.Problem, sys *graph.System, seed int64) (*graph.Problem, error) {
	for k := 0; k < 16; k++ {
		inst, err := gen.Perturb(gen.Instance{Problem: p, System: sys},
			gen.PerturbSpec{ResizeTasks: 0.1, ReweightEdges: 0.1}, deriveSeed(seed, k))
		if err != nil {
			return nil, err
		}
		if !graph.Diff(p, inst.Problem, sys, inst.System).Zero() {
			return inst.Problem, nil
		}
	}
	return nil, fmt.Errorf("perturbation left the problem unchanged 16 times")
}

func problemText(p *graph.Problem) string {
	var b strings.Builder
	_ = graph.WriteProblem(&b, p)
	return b.String()
}
