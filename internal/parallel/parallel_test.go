package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for _, root := range []int64{0, 1, 1991, -5} {
		for i := 0; i < 100; i++ {
			s := DeriveSeed(root, i)
			if s2 := DeriveSeed(root, i); s2 != s {
				t.Fatalf("DeriveSeed(%d,%d) unstable: %d vs %d", root, i, s, s2)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: DeriveSeed(%d,%d) == earlier seed %d", root, i, prev)
			}
			seen[s] = i
		}
	}
	// Consecutive roots must not alias consecutive indices (plain addition
	// would: root+1 index i == root index i+1).
	if DeriveSeed(1, 1) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed aliases across (root, index) pairs like plain addition")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		out, err := Map(context.Background(), 50, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapDeterministicWithDerivedRNGs is the engine-level determinism
// guarantee: per-task generators derived from one root seed produce
// identical collected output at every worker count.
func TestMapDeterministicWithDerivedRNGs(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := Map(context.Background(), 32, workers, func(_ context.Context, i int) (int64, error) {
			rng := rand.New(rand.NewSource(DeriveSeed(42, i)))
			var sum int64
			for k := 0; k < 10; k++ {
				sum += rng.Int63n(1000)
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 40, workers, func(context.Context, int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", p, workers)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		counts := make([]atomic.Int32, 100)
		if err := ForEach(context.Background(), len(counts), workers, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachErrorCancelsPending(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(context.Background(), 1000, workers, func(ctx context.Context, i int) error {
			ran.Add(1)
			if i == 5 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			if i > 5 {
				// Index 5 is handed out before any later one, so a later
				// task can only end once the error has cancelled the pool.
				// Without this wait the other workers could finish all
				// 1000 trivial tasks before the cancellation lands.
				<-ctx.Done()
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if n := ran.Load(); n == 1000 {
			t.Fatalf("workers=%d: error did not stop the pool (all 1000 tasks ran)", workers)
		}
	}
}

func TestForEachContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, 1000, workers, func(ctx context.Context, i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n == 1000 {
			t.Fatalf("workers=%d: cancellation did not stop the pool", workers)
		}
		cancel()
	}
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 10, 4, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context", n)
	}
}

func TestForEachTaskContextCancelledAfterError(t *testing.T) {
	release := make(chan struct{})
	var sawCancel atomic.Bool
	var once sync.Once
	err := ForEach(context.Background(), 8, 4, func(ctx context.Context, i int) error {
		if i == 0 {
			// Fail once the slow task below is surely running.
			<-release
			return errors.New("fail")
		}
		once.Do(func() {
			close(release)
			select {
			case <-ctx.Done():
				sawCancel.Store(true)
			case <-time.After(5 * time.Second):
			}
		})
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected failure")
	}
	if !sawCancel.Load() {
		t.Fatal("running task's context was not cancelled after a sibling failed")
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("fn called for n = 0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(context.Background(), 10, 2, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("partial results leaked: %v", out)
	}
}

// TestForEachSharedStateUnderRace gives the race detector a workload where
// every task touches shared memory through proper synchronisation; it fails
// under -race only if the pool itself races.
func TestForEachSharedStateUnderRace(t *testing.T) {
	var mu sync.Mutex
	sum := 0
	if err := ForEach(context.Background(), 200, 8, func(_ context.Context, i int) error {
		mu.Lock()
		sum += i
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := 199 * 200 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
