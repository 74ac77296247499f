package engine

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFanCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 32} {
		const n = 100
		var hits [n]atomic.Int32
		Fan(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	Fan(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

// do runs fn once per key among concurrent callers through the group's
// Claim/Done/Wait surface, the way the engine does for each member of a
// miss group: the leader computes and publishes, everyone else waits.
func do(g *Group, key string, fn func() (any, error)) (val any, err error, shared bool) {
	c, leader := g.Claim(key)
	if !leader {
		val, err = c.Wait()
		return val, err, true
	}
	val, err = fn()
	g.Done(key, c, val, err)
	return val, err, false
}

func TestGroupDeduplicatesConcurrentCalls(t *testing.T) {
	var g Group
	var executions atomic.Int32
	release := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	sharedCount := atomic.Int32{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := do(&g, "k", func() (any, error) {
				executions.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("got (%v, %v)", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Release the leader only once every other caller has joined its call:
	// the group keeps no follower count, so read it off the goroutine dump —
	// a follower is a goroutine parked in Call.Wait.
	buf := make([]byte, 1<<20)
	for strings.Count(string(buf[:runtime.Stack(buf, true)]), "engine.(*Call).Wait") < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != callers-1 {
		t.Errorf("%d callers shared, want %d", got, callers-1)
	}
}

func TestGroupDistinctKeysRunIndependently(t *testing.T) {
	var g Group
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if _, err, _ := do(&g, k, func() (any, error) { n.Add(1); return nil, nil }); err != nil {
				t.Error(err)
			}
		}(string(rune('a' + i)))
	}
	wg.Wait()
	if n.Load() != 4 {
		t.Errorf("executions = %d, want 4", n.Load())
	}
}

func TestGroupForgetsCompletedCalls(t *testing.T) {
	var g Group
	var n atomic.Int32
	for i := 0; i < 3; i++ {
		do(&g, "k", func() (any, error) { n.Add(1); return nil, nil })
	}
	if n.Load() != 3 {
		t.Errorf("sequential calls collapsed: %d executions, want 3", n.Load())
	}
}

func TestGroupPropagatesError(t *testing.T) {
	var g Group
	want := errors.New("boom")
	c, leader := g.Claim("k")
	if !leader {
		t.Fatal("first claim of a key is not its leader")
	}
	follower, second := g.Claim("k")
	if second || follower != c {
		t.Fatal("a claim of an in-flight key did not join its call")
	}
	g.Done("k", c, nil, want)
	if _, err := follower.Wait(); err != want {
		t.Errorf("err = %v", err)
	}
}

func TestKeyDistinguishesQueries(t *testing.T) {
	a := Key([]float64{0.1, 0.2}, 5)
	if b := Key([]float64{0.1, 0.2}, 5); b != a {
		t.Error("identical inputs produced different keys")
	}
	if b := Key([]float64{0.1, 0.2}, 6); b == a {
		t.Error("different k collided")
	}
	if b := Key([]float64{0.2, 0.1}, 5); b == a {
		t.Error("permuted vector collided")
	}
	// +0.0 vs -0.0 differ in bits: byte-exact keys must separate them,
	// matching the engine's byte-identity guarantee.
	if Key([]float64{0.0}, 1) == Key([]float64{math.Copysign(0, -1)}, 1) {
		t.Error("+0 and -0 collided")
	}
}

func TestStreamDeterministicAndSkewed(t *testing.T) {
	const draws = 2000
	a := NewStreamIn(7, 3, 50, 1.4, 5, 15, 0, false)
	b := NewStreamIn(7, 3, 50, 1.4, 5, 15, 0, false)
	seen := map[string]int{}
	for i := 0; i < draws; i++ {
		qa, ka := a.Next()
		qb, kb := b.Next()
		if ka != kb {
			t.Fatalf("draw %d: k diverged", i)
		}
		for j := range qa {
			if qa[j] != qb[j] {
				t.Fatalf("draw %d: vectors diverged", i)
			}
		}
		if ka < 5 || ka > 15 {
			t.Fatalf("k=%d outside [5,15]", ka)
		}
		seen[Key(qa, ka)]++
	}
	// Zipf skew: the most popular query must dominate a uniform share.
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if max < 3*draws/50 {
		t.Errorf("top query drawn %d times; want clear skew over uniform %d", max, draws/50)
	}
	if len(seen) < 2 {
		t.Error("stream collapsed to a single query")
	}
}

func TestStreamJitterStaysInRange(t *testing.T) {
	st := NewStreamIn(11, 4, 10, 1.2, 3, 3, 0.01, false)
	for i := 0; i < 500; i++ {
		q, k := st.Next()
		if k != 3 {
			t.Fatalf("k=%d", k)
		}
		for _, x := range q {
			if x < 0.01 || x > 1 {
				t.Fatalf("coordinate %g outside [0.01,1]", x)
			}
		}
	}
}
