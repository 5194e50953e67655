package fleet

import (
	"fmt"
	"testing"
)

func testPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return peers
}

func TestNewRingValidates(t *testing.T) {
	if _, err := NewRing("", testPeers(2)); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewRing("http://other:1", testPeers(2)); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	if _, err := NewRing("x", nil); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewRing("x", []string{"x", ""}); err == nil {
		t.Fatal("empty peer name accepted")
	}
	r, err := NewRing("x", []string{"x", "y", "x"})
	if err != nil {
		t.Fatalf("duplicate peers rejected: %v", err)
	}
	if r.Size() != 2 {
		t.Fatalf("duplicates not collapsed: size %d", r.Size())
	}
}

// Ownership must be a pure function of the peer *set*: every replica builds
// the ring from its own -peers flag, and any ordering of the same list must
// agree on every key's owner or the fleet's "one logical cache" splits.
func TestRingOrderIndependent(t *testing.T) {
	peers := testPeers(5)
	reversed := make([]string, len(peers))
	for i, p := range peers {
		reversed[len(peers)-1-i] = p
	}
	a, err := NewRing(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(peers[2], reversed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %q from one ordering, %q from the other", key, a.Owner(key), b.Owner(key))
		}
	}
}

// Rendezvous hashing's selling point: removing a peer moves only the keys
// that peer owned. Every key owned by a surviving peer keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	peers := testPeers(5)
	full, err := NewRing(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewRing(peers[0], peers[:4]) // drop replica-4
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		before, after := full.Owner(key), without.Owner(key)
		if before == peers[4] {
			moved++
			continue // orphaned keys must land somewhere else
		}
		if before != after {
			t.Fatalf("key %q owned by surviving peer %q moved to %q", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("dropped peer owned no keys — hash is not spreading")
	}
}

// The load must spread: with 5 peers and many keys, no peer should own a
// wildly disproportionate share.
func TestRingBalance(t *testing.T) {
	peers := testPeers(5)
	r, err := NewRing(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("sha256:%064d", i))]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / keys
		if share < 0.10 || share > 0.35 {
			t.Errorf("peer %s owns %.1f%% of keys (want ~20%%)", p, 100*share)
		}
	}
}

func TestRingSinglePeerOwnsEverything(t *testing.T) {
	r, err := NewRing("solo", []string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if r.Owner(key) != r.Self() {
			t.Fatalf("single-peer ring does not own %q", key)
		}
	}
}
