package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring shards ownership of request fingerprints across a static fleet by
// rendezvous (highest-random-weight) hashing: every peer scores each key as
// fnv64a(peer || 0x00 || key) and the highest score owns the key. Unlike a
// hash ring with virtual nodes there is no token table to build or rebalance
// — ownership is a pure function of (peer set, key) — and removing one peer
// reassigns only that peer's keys, which is all the consistency a static
// `-peers` fleet needs. Every replica constructs the same Ring from the
// same peer list (order-independent: the list is canonicalised), so all
// replicas agree on every key's owner without coordination.
//
// A Ring is immutable after New and safe for concurrent use.
type Ring struct {
	self  string
	peers []string // sorted, deduplicated
}

// NewRing builds the ring from this replica's own peer name and the full
// peer list (which must include self). Names are compared byte-for-byte:
// "http://a:1" and "http://A:1" are different peers, so every replica must
// be started with the identical -peers list.
func NewRing(self string, peers []string) (*Ring, error) {
	if self == "" {
		return nil, fmt.Errorf("fleet: self must be non-empty")
	}
	seen := make(map[string]bool, len(peers))
	sorted := make([]string, 0, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("fleet: empty peer name in peer list")
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		sorted = append(sorted, p)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("fleet: peer list must be non-empty")
	}
	if !seen[self] {
		return nil, fmt.Errorf("fleet: self %q is not in the peer list", self)
	}
	sort.Strings(sorted)
	return &Ring{self: self, peers: sorted}, nil
}

// Owner returns the peer that owns key: the highest rendezvous score, ties
// broken toward the lexicographically smallest peer so ownership is total
// and deterministic even in the (astronomically unlikely) colliding case.
func (r *Ring) Owner(key string) string {
	best := r.peers[0]
	bestScore := score(r.peers[0], key)
	for _, p := range r.peers[1:] {
		if s := score(p, key); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// Self returns this replica's own peer name.
func (r *Ring) Self() string { return r.self }

// Peers returns the canonicalised peer list (sorted, deduplicated).
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Size returns the number of peers in the fleet.
func (r *Ring) Size() int { return len(r.peers) }

// score is the rendezvous weight of (peer, key). The 0x00 separator keeps
// ("ab","c") and ("a","bc") from colliding.
func score(peer, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}
