package gir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
)

// TestPartitionedEngineMatchesSingleTree: an Engine over a partitioned
// dataset and one over a single tree, fed the same stream of reads and
// writes, serve byte-identical answers with the same hits, and on
// continuous data end with the same cached constraint sets. A region does
// not depend on the tree it was read from, but for two classes whose
// minimal form is not unique (several records whose rows share a
// direction, and regions that lie in a hyperplane): continuous random data
// has neither, so the regions are compared there only, and the tied grid's
// answers alone.
func TestPartitionedEngineMatchesSingleTree(t *testing.T) {
	const n, steps = 1500, 2000
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		for _, c := range []struct {
			d    int
			tied bool
		}{{3, false}, {5, false}, {3, true}} {
			d, tied := c.d, c.tied
			t.Run(fmt.Sprintf("%v/d=%d/tied=%v", space, d, tied), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(71 + 10*d + int(space))))
				points := randPoints(r, n, d)
				if tied {
					for _, p := range points {
						for j := range p {
							p[j] = math.Round(p[j]*8) / 8
						}
					}
				}
				single, err := NewDatasetInSpace(points, space)
				if err != nil {
					t.Fatal(err)
				}
				parted, err := NewPartitionedDataset(points, 4, space)
				if err != nil {
					t.Fatal(err)
				}
				opts := EngineOptions{Workers: 2, CacheCapacity: 256}
				es, ep := NewEngine(single, opts), NewEngine(parted, opts)
				defer es.Close()
				defer ep.Close()

				point := func(lo float64) []float64 {
					p := make([]float64, d)
					for j := range p {
						p[j] = lo + (1-lo)*r.Float64()
					}
					return p
				}
				hot := make([][]float64, 32)
				for i := range hot {
					hot[i] = space.Normalize(point(0.1))
				}
				live := map[int64][]float64{}
				next := int64(n)
				compared := 0
				sameCaches := func(step int) {
					want, got := cachedConstraintSets(es), cachedConstraintSets(ep)
					if len(got) != len(want) {
						t.Fatalf("step %d: the engines cache %d and %d entries", step, len(got), len(want))
					}
					for key, w := range want {
						if !bytes.Equal(got[key], w) {
							t.Fatalf("step %d: the engines cache different constraint sets for one query and k", step)
						}
					}
					compared += len(want)
				}
				for step := 0; step < steps; step++ {
					if !tied && step%100 == 99 {
						sameCaches(step)
					}
					switch x := r.Float64(); {
					case x < 0.05: // near the top corner, so it evicts what it beats
						p := point(0.6)
						if err := single.Insert(next, p); err != nil {
							t.Fatal(err)
						}
						if err := parted.Insert(next, p); err != nil {
							t.Fatal(err)
						}
						live[next] = p
						next++
					case x < 0.08 && len(live) > 0:
						for id, p := range live {
							a, errA := single.Delete(id, p)
							b, errB := parted.Delete(id, p)
							if !a || !b || errA != nil || errB != nil {
								t.Fatalf("step %d: delete of %d = %v, %v / %v, %v", step, id, a, errA, b, errB)
							}
							delete(live, id)
							break
						}
					default:
						q, k := hot[r.Intn(len(hot))], 1+r.Intn(12)
						want, got := es.TopK(q, k), ep.TopK(q, k)
						if want.Err != nil || got.Err != nil {
							t.Fatal(want.Err, got.Err)
						}
						if !sameRecordBytes(got.Records, want.Records) {
							t.Fatalf("step %d: the partitioned engine served %v, the single tree %v", step, got.Records, want.Records)
						}
						if got.CacheHit != want.CacheHit || got.PartialHit != want.PartialHit {
							t.Fatalf("step %d: hit %v/%v partial %v/%v", step, got.CacheHit, want.CacheHit, got.PartialHit, want.PartialHit)
						}
					}
				}
				st := ep.Stats()
				if st.CacheHits == 0 || st.Invalidated == 0 {
					t.Fatalf("a stream with %d hits and %d evictions proves little", st.CacheHits, st.Invalidated)
				}
				if !tied && compared == 0 {
					t.Fatal("no cached region was compared")
				}
				t.Logf("%d hits, %d misses, %d evictions; %d cached regions compared", st.CacheHits, st.Misses, st.Invalidated, compared)
			})
		}
	}
}

// sameRecordBytes compares two rankings id, score bits and coordinates.
func sameRecordBytes(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score) && slices.Equal(x.Attrs, y.Attrs)
	})
}

// cachedConstraintSets keys every cached entry by its query's bits and k,
// and encodes its region's constraints as a sorted set.
func cachedConstraintSets(e *Engine) map[string][]byte {
	out := map[string][]byte{}
	for _, ent := range e.cache.inner.Entries() {
		key := fmt.Sprint(ent.Region.Query, ent.K)
		rows := make([][]byte, len(ent.Region.Constraints))
		for i, c := range ent.Region.Constraints {
			rows[i] = constraintBytes(c)
		}
		slices.SortFunc(rows, bytes.Compare)
		out[key] = bytes.Join(rows, nil)
	}
	return out
}

func constraintBytes(c girint.Constraint) []byte {
	b := []byte{byte(c.Kind)}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.A))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.B))
	for _, x := range c.Normal {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// freeLog records the pages a dataset's reclamation returns to its store.
type freeLog struct {
	pager.Store
	freed map[pager.PageID]bool
}

func (f *freeLog) Free(id pager.PageID) {
	f.freed[id] = true
	f.Store.Free(id)
}

// TestPartitionedTopPageReclaimedAfterLastReader: every write publishes a
// fresh top page and retires the previous one with the pages it freed, so
// a reader pinned to a snapshot keeps its top page — and its answers — for
// as long as it holds the pin, and the page is freed by the first write
// after the release.
func TestPartitionedTopPageReclaimedAfterLastReader(t *testing.T) {
	r := rand.New(rand.NewSource(423))
	const n, d, k = 600, 3, 6
	points := randPoints(r, n, d)
	ds, err := NewPartitionedDataset(points, 3, SpaceBox)
	if err != nil {
		t.Fatal(err)
	}
	frees := &freeLog{Store: ds.store, freed: map[pager.PageID]bool{}}
	ds.store = frees // reclamation frees through ds.store; the trees share the store under it
	shadow := map[int64][]float64{}
	for i, p := range points {
		shadow[int64(i)] = p
	}
	mutate := func(id int64) {
		t.Helper()
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		if err := ds.Insert(id, p); err != nil {
			t.Fatal(err)
		}
		if ok, err := ds.Delete(id, p); err != nil || !ok {
			t.Fatalf("lost record %d: %v, %v", id, ok, err)
		}
	}

	mutate(1 << 30)
	sn := ds.pinSnap()
	clear(frees.freed) // ids freed before the pin may have come back as its pages
	top, topBytes := sn.tree.Root(), slices.Clone(frees.Read(sn.tree.Root()))
	q := []float64{0.5, 0.2, 0.7}
	for i := int64(1); i <= 20; i++ {
		mutate(1<<30 + i)
		if frees.freed[top] {
			t.Fatalf("write %d freed top page %d while a reader was pinned to it", i, top)
		}
	}
	if ds.snap.Load().tree.Root() == top {
		t.Fatal("writes published no new top page")
	}
	if !bytes.Equal(frees.Read(top), topBytes) {
		t.Fatal("the pinned snapshot's top page was rewritten")
	}
	res, err := sn.topK(q, k, Linear)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range bruteTopKScored(shadow, q, k) {
		if got := res.Records[i]; got.ID != want.id || got.Score != want.score {
			t.Fatalf("the pinned snapshot ranks record %d at %d, brute force %d", got.ID, i, want.id)
		}
	}
	sn.release()
	mutate(1 << 31)
	if !frees.freed[top] {
		t.Fatalf("top page %d still held after its last reader released and a write ran", top)
	}
	if len(ds.retired) != 0 {
		t.Fatalf("%d snapshots still retired with no reader pinned", len(ds.retired))
	}
}

// TestPartitionedDatasetRefusesPersistence: a partitioned dataset has no
// durable form, so EnableWAL and both Checkpoints fail and write nothing —
// not even the directory.
func TestPartitionedDatasetRefusesPersistence(t *testing.T) {
	ds, err := NewPartitionedDataset(randPoints(rand.New(rand.NewSource(5)), 300, 3), 2, SpaceBox)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{})
	defer e.Close()
	if res := e.TopK([]float64{0.3, 0.3, 0.4}, 4); res.Err != nil {
		t.Fatal(res.Err) // a cached entry for Engine.Checkpoint to save
	}
	root := t.TempDir()
	for name, persist := range map[string]func(string) error{
		"EnableWAL":          func(dir string) error { return ds.EnableWAL(dir, WALOptions{}) },
		"Dataset.Checkpoint": ds.Checkpoint,
		"Engine.Checkpoint":  e.Checkpoint,
	} {
		dir := filepath.Join(root, name)
		if err := persist(dir); err == nil {
			t.Errorf("%s on a partitioned dataset succeeded", name)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s on a partitioned dataset left %s behind (%v)", name, dir, err)
		}
	}
	if err := ds.Insert(1<<40, []float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatalf("a refused checkpoint stopped writes: %v", err)
	}
}
