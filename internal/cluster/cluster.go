// Package cluster groups the np tasks of a problem graph into na clusters
// (the first step of the paper's two-step scheduling decomposition, §1).
// The paper assumes "an existing technique" performs this step and uses a
// random clustering in its own experiments (§5); this package provides that
// random clusterer plus several deterministic alternatives of increasing
// sophistication, all behind one interface.
//
// Every clusterer guarantees the paper's invariants: exactly k clusters,
// each non-empty (it returns an error when np < k makes that impossible).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"mimdmap/internal/graph"
)

// Clusterer partitions a problem graph's tasks into k non-empty clusters.
type Clusterer interface {
	// Cluster returns a validated clustering of p into k clusters.
	Cluster(p *graph.Problem, k int) (*graph.Clustering, error)
	// Name identifies the strategy, for reports and CLI flags.
	Name() string
}

func checkArgs(p *graph.Problem, k int) error {
	if k <= 0 {
		return fmt.Errorf("cluster: need k > 0, got %d", k)
	}
	if p.NumTasks() < k {
		return fmt.Errorf("cluster: cannot split %d tasks into %d non-empty clusters", p.NumTasks(), k)
	}
	return nil
}

// Random clusters tasks uniformly at random, then repairs empty clusters by
// stealing from the largest ones — the paper's "random clustering program".
type Random struct {
	Rand *rand.Rand
}

// Name implements Clusterer.
func (r *Random) Name() string { return "random" }

// Cluster implements Clusterer.
func (r *Random) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	if err := checkArgs(p, k); err != nil {
		return nil, err
	}
	rng := r.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := p.NumTasks()
	c := graph.NewClustering(n, k)
	// Guarantee non-emptiness directly: deal the first k tasks of a random
	// permutation to distinct clusters, the rest uniformly.
	perm := rng.Perm(n)
	for i, t := range perm {
		if i < k {
			c.Of[t] = i
		} else {
			c.Of[t] = rng.Intn(k)
		}
	}
	return c, nil
}

// RoundRobin assigns task i to cluster i mod k: a trivially balanced,
// structure-blind baseline clusterer.
type RoundRobin struct{}

// Name implements Clusterer.
func (RoundRobin) Name() string { return "round-robin" }

// Cluster implements Clusterer.
func (RoundRobin) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	if err := checkArgs(p, k); err != nil {
		return nil, err
	}
	c := graph.NewClustering(p.NumTasks(), k)
	for t := range c.Of {
		c.Of[t] = t % k
	}
	return c, nil
}

// Blocks slices the tasks into k contiguous ranges of a topological order,
// so each cluster holds a consecutive slab of the program's execution. Long
// dependence chains then stay mostly intra-cluster.
type Blocks struct{}

// Name implements Clusterer.
func (Blocks) Name() string { return "blocks" }

// Cluster implements Clusterer.
func (Blocks) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	if err := checkArgs(p, k); err != nil {
		return nil, err
	}
	order, err := p.View().Order()
	if err != nil {
		return nil, err
	}
	n := len(order)
	c := graph.NewClustering(n, k)
	for rank, t := range order {
		// Balanced block boundaries: block b covers ranks
		// [b·n/k, (b+1)·n/k); every block is non-empty because n ≥ k.
		c.Of[t] = rank * k / n
	}
	return c, nil
}

// LoadBalance is longest-processing-time-first (LPT) list assignment: tasks
// sorted by descending size go to the currently lightest cluster. It
// balances computation while ignoring communication entirely — a useful foil
// for communication-aware clusterers.
type LoadBalance struct{}

// Name implements Clusterer.
func (LoadBalance) Name() string { return "load-balance" }

// Cluster implements Clusterer.
func (LoadBalance) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	if err := checkArgs(p, k); err != nil {
		return nil, err
	}
	n := p.NumTasks()
	tasks := make([]int, n)
	for i := range tasks {
		tasks[i] = i
	}
	sort.SliceStable(tasks, func(a, b int) bool {
		if p.Size[tasks[a]] != p.Size[tasks[b]] {
			return p.Size[tasks[a]] > p.Size[tasks[b]]
		}
		return tasks[a] < tasks[b]
	})
	c := graph.NewClustering(n, k)
	load := make([]int, k)
	used := make([]int, k)
	for idx, t := range tasks {
		// Reserve enough trailing tasks to fill still-empty clusters.
		remaining := n - idx
		empty := 0
		for _, u := range used {
			if u == 0 {
				empty++
			}
		}
		best := -1
		for b := 0; b < k; b++ {
			if remaining == empty && used[b] > 0 {
				continue // must feed an empty cluster now
			}
			if best == -1 || load[b] < load[best] {
				best = b
			}
		}
		c.Of[t] = best
		load[best] += p.Size[t]
		used[best]++
	}
	return c, nil
}
