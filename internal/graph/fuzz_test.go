package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The text-format fuzzers pin the parser's core invariant: any input the
// parser accepts round-trips — parse → format → parse yields an equal,
// valid graph — and no input, however mangled, makes it panic or accept an
// invalid graph. The seed corpus is the golden fixtures the unit tests use
// (the paper's running example and generated DAGs), their text forms, and
// the documented edge cases of the format.

// fuzzSeedProblems returns text forms of known-good problem graphs.
func fuzzSeedProblems() []string {
	seeds := []string{
		"problem 2\ntask 0 3\ntask 1 4\nedge 0 1 2\n",
		"# comment\nproblem 1\n\ntask 0 2\n",
		"problem 3\ntask 2 1\nedge 0 2 7\nedge 1 2 1\n",
	}
	var buf bytes.Buffer
	if err := WriteProblem(&buf, diamond()); err == nil {
		seeds = append(seeds, buf.String())
	}
	buf.Reset()
	rng := rand.New(rand.NewSource(99))
	if err := WriteProblem(&buf, randomDAG(rng, 18)); err == nil {
		seeds = append(seeds, buf.String())
	}
	return seeds
}

func FuzzParseProblem(f *testing.F) {
	for _, seed := range fuzzSeedProblems() {
		f.Add(seed)
	}
	f.Add("problem x\n")
	f.Add("problem 2\nedge 0 1 1\nedge 1 0 1\n") // cycle: must be rejected
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadProblem(strings.NewReader(in))
		if err != nil {
			return // rejected inputs just must not panic
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid problem: %v\ninput: %q", verr, in)
		}
		var buf bytes.Buffer
		if werr := WriteProblem(&buf, p); werr != nil {
			t.Fatalf("cannot format an accepted problem: %v", werr)
		}
		q, rerr := ReadProblem(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("formatted problem does not re-parse: %v\nformatted: %q", rerr, buf.String())
		}
		if !p.Equal(q) {
			t.Fatalf("round trip changed the problem:\ninput: %q\nformatted: %q", in, buf.String())
		}
	})
}

// fuzzSeedSystems returns text forms of known-good system graphs.
func fuzzSeedSystems() []string {
	seeds := []string{
		"system 2\nlink 0 1\n",
		"system 4 fig-5a\nlink 0 1\nlink 1 2\nlink 2 3\nlink 3 0\n",
		"# ring\nsystem 3\nlink 0 1\nlink 1 2\nlink 0 2\n",
	}
	sq := square()
	sq.Name = "fig-5a"
	var buf bytes.Buffer
	if err := WriteSystem(&buf, sq); err == nil {
		seeds = append(seeds, buf.String())
	}
	return seeds
}

func FuzzParseSystem(f *testing.F) {
	for _, seed := range fuzzSeedSystems() {
		f.Add(seed)
	}
	f.Add("system 3\nlink 0 1\n") // disconnected: must be rejected
	f.Add("system 2\nlink 0 9\n")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadSystem(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid system: %v\ninput: %q", verr, in)
		}
		degrees := 0
		for i := 0; i < s.NumNodes(); i++ {
			row := s.Neighbors(i)
			for k, j := range row {
				if k > 0 && row[k-1] >= j {
					t.Fatalf("neighbours of %d not strictly ascending: %v\ninput: %q", i, row, in)
				}
				if j == i {
					t.Fatalf("processor %d lists a self-link\ninput: %q", i, in)
				}
				if !slices.Contains(s.Neighbors(j), i) {
					t.Fatalf("link %d—%d is not symmetric\ninput: %q", i, j, in)
				}
			}
			degrees += s.Degree(i)
		}
		if 2*s.NumLinks() != degrees {
			t.Fatalf("NumLinks = %d, degrees sum to %d\ninput: %q", s.NumLinks(), degrees, in)
		}
		var buf bytes.Buffer
		if werr := WriteSystem(&buf, s); werr != nil {
			t.Fatalf("cannot format an accepted system: %v", werr)
		}
		u, rerr := ReadSystem(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("formatted system does not re-parse: %v\nformatted: %q", rerr, buf.String())
		}
		if !s.Equal(u) || s.Name != u.Name {
			t.Fatalf("round trip changed the system:\ninput: %q\nformatted: %q", in, buf.String())
		}
	})
}

// fuzzSeedClusterings returns text forms of known-good clusterings.
func fuzzSeedClusterings() []string {
	seeds := []string{
		"clustering 2 2\nassign 0 0\nassign 1 1\n",
		"# pair\nclustering 3 2\nassign 0 1\nassign 1 0\nassign 2 1\n",
		"clustering 1 1\n",
	}
	var buf bytes.Buffer
	if err := WriteClustering(&buf, runningClustering()); err == nil {
		seeds = append(seeds, buf.String())
	}
	return seeds
}

func FuzzParseClustering(f *testing.F) {
	for _, seed := range fuzzSeedClusterings() {
		f.Add(seed)
	}
	f.Add("clustering 2 2\nassign 0 0\nassign 1 0\n") // empty cluster: must be rejected
	f.Add("clustering 2 2\nassign 1 5\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadClustering(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid clustering: %v\ninput: %q", verr, in)
		}
		var buf bytes.Buffer
		if werr := WriteClustering(&buf, c); werr != nil {
			t.Fatalf("cannot format an accepted clustering: %v", werr)
		}
		d, rerr := ReadClustering(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("formatted clustering does not re-parse: %v\nformatted: %q", rerr, buf.String())
		}
		if d.Fingerprint() != c.Fingerprint() {
			t.Fatalf("round trip changed the clustering:\ninput: %q\nformatted: %q", in, buf.String())
		}
	})
}
