package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync/atomic"
)

// Content-addressed canonicalization. A Fingerprint is a stable 256-bit
// digest of a graph's structure — the identity production mapping services
// key their work off: two requests naming byte-for-byte identical inputs
// hash to the same fingerprint no matter which process, machine or point in
// time computed it, so fingerprints can drive caches, deduplicate in-flight
// work, and travel between processes. This replaces pointer identity (which
// dies with the process and breaks the moment a caller rebuilds an equal
// graph) as the cache key of the service layer.
//
// Stability contract: the encoding behind each Fingerprint method is
// versioned by its domain tag ("mimdmap/problem/v1", …). Changing what a
// method hashes requires bumping its tag, so stale persisted fingerprints
// can never alias fresh ones.
//
// Fingerprints memoize: the first call hashes the structure, repeats return
// the stored digest (the serving hot path fingerprints the same graphs on
// every request — rehashing the whole graph per cache hit dominated the
// warm path before memoization). The memo makes first-Fingerprint a
// freeze point: graphs must not be structurally mutated after it. That was
// already the de facto contract — the service layer shares graph pointers
// between cached responses and their callers — and construction (builders,
// parsers, generators) happens strictly before any fingerprint use.
//
// For a Problem the freeze point also settles its edge log into the sparse
// View (view.go), which Fingerprint hashes; Validate, TopoOrder, View and
// the whole-graph queries listed on Problem freeze it too, and SetEdge on a
// frozen problem panics, so no edge change can go unseen.

// Fingerprint is a 256-bit content address of a graph structure.
type Fingerprint [32]byte

// fpMemo caches a computed fingerprint on its graph. Concurrent first
// calls may both compute (deterministically the same digest) and both
// store; every later call loads the pointer once. The embedded atomic
// makes the owning graph types no-copy, which is deliberate: a by-value
// graph copy would alias the underlying slices, exactly the sharing the
// freeze-point contract above exists to protect.
type fpMemo struct {
	p atomic.Pointer[Fingerprint]
}

// memo returns the cached fingerprint, computing and storing it via f on
// first use.
func (m *fpMemo) memo(f func() Fingerprint) Fingerprint {
	if fp := m.p.Load(); fp != nil {
		return *fp
	}
	fp := f()
	m.p.Store(&fp)
	return fp
}

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is the zero value (never produced
// by hashing, so usable as a "not computed" sentinel).
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Hasher folds structured data into a Fingerprint. Every write is
// self-delimiting (varints, length-prefixed strings), so a fixed sequence of
// writes encodes unambiguously: distinct field sequences can never collide
// by concatenation. The zero value is not usable; construct with NewHasher,
// whose domain tag separates unrelated uses of the same field layout.
type Hasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

// NewHasher returns a Hasher seeded with the given domain tag.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(domain)
	return h
}

// Int64 writes one signed integer.
func (h *Hasher) Int64(v int64) {
	n := binary.PutVarint(h.buf[:], v)
	h.h.Write(h.buf[:n])
}

// Int writes one int.
func (h *Hasher) Int(v int) { h.Int64(int64(v)) }

// Bool writes one boolean.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Int64(1)
	} else {
		h.Int64(0)
	}
}

// Str writes one length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	h.h.Write([]byte(s))
}

// Ints writes one length-prefixed int slice.
func (h *Hasher) Ints(xs []int) {
	h.Int(len(xs))
	for _, x := range xs {
		h.Int(x)
	}
}

// Fold writes a previously computed fingerprint, composing hierarchical
// fingerprints without re-hashing the underlying structure.
func (h *Hasher) Fold(f Fingerprint) { h.h.Write(f[:]) }

// Sum finalises and returns the fingerprint. The Hasher must not be written
// to afterwards.
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	h.h.Sum(f[:0])
	return f
}

// Fingerprint returns the content address of the problem graph: task count,
// task sizes, and every edge with its weight. Problems that compare Equal
// fingerprint identically.
func (p *Problem) Fingerprint() Fingerprint {
	return p.fp.memo(p.fingerprint)
}

// fingerprint hashes the frozen view. Its edges, weight > 0, come sorted by
// source then destination: the order the v1 encoding has always hashed.
func (p *Problem) fingerprint() Fingerprint {
	v := p.View()
	h := NewHasher("mimdmap/problem/v1")
	h.Ints(p.Size)
	h.Int(v.NumEdges())
	for _, a := range v.arcs {
		h.Int(a.From)
		h.Int(a.To)
		h.Int(a.W)
	}
	return h.Sum()
}

// Fingerprint returns the content address of the system graph: node count,
// name, and every link. The name participates because it flows into
// responses (Diagnostics.Machine), so two machines differing only in label
// must not share a response-cache entry.
func (s *System) Fingerprint() Fingerprint {
	return s.fp.memo(s.fingerprint)
}

func (s *System) fingerprint() Fingerprint {
	h := NewHasher("mimdmap/system/v1")
	h.Str(s.Name)
	h.Int(s.NumNodes())
	h.Int(s.links)
	for i, row := range s.adj {
		for _, j := range row {
			if j > i {
				h.Int(i)
				h.Int(j)
			}
		}
	}
	return h.Sum()
}

// Fingerprint returns the content address of the clustering: the exact
// task→cluster map and the cluster count. Relabelled-but-equal partitions
// fingerprint differently by design — cluster IDs are positional inputs to
// the mapper (they index processors in the initial assignment), so two
// relabellings can legitimately map differently. Canonicalise first with
// Canonical to fingerprint the partition structure alone.
func (c *Clustering) Fingerprint() Fingerprint {
	return c.fp.memo(c.fingerprint)
}

func (c *Clustering) fingerprint() Fingerprint {
	h := NewHasher("mimdmap/clustering/v1")
	h.Int(c.K)
	h.Ints(c.Of)
	return h.Sum()
}
