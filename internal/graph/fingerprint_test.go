package graph

import (
	"math/rand"
	"testing"
)

// TestFingerprintCloneInvariant pins the content-address property: a deep
// copy fingerprints identically, and the fingerprint is independent of
// pointer identity.
func TestFingerprintCloneInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		p := randomDAG(rng, 24)
		if p.Fingerprint() != p.Clone().Fingerprint() {
			t.Fatalf("problem clone %d fingerprints differently", i)
		}
	}
	s := square()
	s.Name = "fig-5a"
	if s.Fingerprint() != s.Clone().Fingerprint() {
		t.Fatal("system clone fingerprints differently")
	}
	c := &Clustering{Of: []int{0, 1, 0, 2, 1}, K: 3}
	if c.Fingerprint() != c.Clone().Fingerprint() {
		t.Fatal("clustering clone fingerprints differently")
	}
}

// TestFingerprintCorpusDistinct is the collision sanity gate: across a
// generated corpus of distinct graphs, no two fingerprints collide.
func TestFingerprintCorpusDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	seen := map[Fingerprint]string{}
	record := func(f Fingerprint, desc string) {
		t.Helper()
		if prev, dup := seen[f]; dup {
			t.Fatalf("fingerprint collision: %s vs %s", prev, desc)
		}
		seen[f] = desc
	}

	// Problems: random DAGs, deduplicated by structure before recording.
	probs := make([]*Problem, 0, 200)
	for len(probs) < 200 {
		p := randomDAG(rng, 30)
		dup := false
		for _, q := range probs {
			if p.Equal(q) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		probs = append(probs, p)
		record(p.Fingerprint(), "problem")
	}

	// Systems: random connected-ish machines (validity is irrelevant to the
	// hash; only structural distinctness matters).
	systems := make([]*System, 0, 100)
	for len(systems) < 100 {
		n := 2 + rng.Intn(12)
		s := NewSystem(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.4 {
					s.AddLink(a, b)
				}
			}
		}
		dup := false
		for _, u := range systems {
			if s.Equal(u) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		systems = append(systems, s)
		record(s.Fingerprint(), "system")
	}

	// Clusterings: random task→cluster maps.
	var clusterings []*Clustering
	equalClus := func(a, b *Clustering) bool {
		if a.K != b.K || len(a.Of) != len(b.Of) {
			return false
		}
		for i := range a.Of {
			if a.Of[i] != b.Of[i] {
				return false
			}
		}
		return true
	}
	for len(clusterings) < 100 {
		n := 1 + rng.Intn(20)
		c := NewClustering(n, 1+rng.Intn(6))
		for i := range c.Of {
			c.Of[i] = rng.Intn(c.K)
		}
		dup := false
		for _, d := range clusterings {
			if equalClus(c, d) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		clusterings = append(clusterings, c)
		record(c.Fingerprint(), "clustering")
	}
}

// TestFingerprintSensitivity flips single fields and demands the
// fingerprint move: weights, edges, names, and cluster counts all
// participate in the identity.
func TestFingerprintSensitivity(t *testing.T) {
	p := diamond()
	base := p.Fingerprint()

	q := p.Clone()
	q.Size[0]++
	if q.Fingerprint() == base {
		t.Fatal("task size change did not move the problem fingerprint")
	}
	for _, a := range p.View().Arcs() {
		q = p.Clone()
		q.SetEdge(a.From, a.To, a.W+1)
		if q.Fingerprint() == base {
			t.Fatal("edge weight change did not move the problem fingerprint")
		}
	}

	s := square()
	sysBase := s.Fingerprint()
	u := s.Clone()
	u.Name = "renamed"
	if u.Fingerprint() == sysBase {
		t.Fatal("system rename did not move the fingerprint")
	}
	u = s.Clone()
	u.AddLink(0, 2)
	if u.Fingerprint() == sysBase {
		t.Fatal("added link did not move the system fingerprint")
	}

	c := &Clustering{Of: []int{0, 1, 0, 1}, K: 2}
	clusBase := c.Fingerprint()
	d := c.Clone()
	d.Of[3] = 0
	if d.Fingerprint() == clusBase {
		t.Fatal("cluster move did not move the clustering fingerprint")
	}
	// Same Of but a different declared K is a different clustering.
	e := &Clustering{Of: []int{0, 1, 0, 1}, K: 3}
	if e.Fingerprint() == clusBase {
		t.Fatal("cluster-count change did not move the clustering fingerprint")
	}
}

// TestHasherFraming pins the self-delimiting encoding: shifting a boundary
// between adjacent fields must change the digest.
func TestHasherFraming(t *testing.T) {
	a := NewHasher("t")
	a.Str("ab")
	a.Str("c")
	b := NewHasher("t")
	b.Str("a")
	b.Str("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("string framing is ambiguous")
	}
	x := NewHasher("t")
	x.Ints([]int{1, 2})
	x.Ints([]int{3})
	y := NewHasher("t")
	y.Ints([]int{1})
	y.Ints([]int{2, 3})
	if x.Sum() == y.Sum() {
		t.Fatal("int-slice framing is ambiguous")
	}
	if NewHasher("u").Sum() == NewHasher("v").Sum() {
		t.Fatal("domain tags do not separate hashers")
	}
}
