// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 8) as printed series, at a
// configurable scale. Figure N of the paper is the method FigN in
// figures.go (Run dispatches on the number); cmd/girbench is the CLI
// front-end.
//
// Scale and skipping: the paper's defaults (n up to 20M, d up to 8) push
// SP and CP to 10⁶–10⁸ ms in the authors' own charts. The harness defaults
// to n = 100k and guards each cell: before timing SP or CP it probes the
// skyline size with an abort threshold, and cells whose probe exceeds the
// method's cap are reported as "skip" rather than run for hours. FP has no
// caps — scaling to every cell is precisely the paper's claim.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/girlib/gir/internal/datagen"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Config scales the experiments. The zero value is unusable; use Default.
type Config struct {
	// N is the synthetic dataset cardinality (paper default: 1M).
	N int
	// Dims is the dimensionality sweep (paper: 2..8).
	Dims []int
	// Ks is the k sweep (paper: 5,10,20,50,100).
	Ks []int
	// DefaultD and DefaultK are Table 2's bold defaults.
	DefaultD, DefaultK int
	// NSweep lists cardinalities for Figures 16/18 (paper: 0.5M..20M).
	NSweep []int
	// Queries per cell (paper: 100).
	Queries int
	// Seed makes runs deterministic.
	Seed int64
	// RealN caps the surrogate real-dataset cardinality (0 = paper size).
	RealN int
	// Budget bounds the wall time spent per cell; remaining queries are
	// dropped (the average uses completed ones).
	Budget time.Duration
	// SkylineCap aborts SP/CP cells whose skyline exceeds it.
	SkylineCap int
	// Cost converts page reads to I/O time.
	Cost pager.CostModel
}

// Default returns the harness defaults: 10× below the paper's cardinality
// with the same sweeps.
func Default() Config {
	return Config{
		N:          100_000,
		Dims:       []int{2, 3, 4, 5, 6, 7, 8},
		Ks:         []int{5, 10, 20, 50, 100},
		DefaultD:   4,
		DefaultK:   20,
		NSweep:     []int{50_000, 100_000, 500_000, 1_000_000, 2_000_000},
		Queries:    5,
		Seed:       1,
		Budget:     45 * time.Second,
		SkylineCap: 30_000,
		Cost:       pager.DefaultCostModel,
	}
}

// cpHullCap bounds the skyline size CP will attempt a convex hull over,
// per dimension (hull cost grows as |SL|^⌈d/2⌉).
func cpHullCap(d int) int {
	switch {
	case d <= 3:
		return 30000
	case d == 4:
		return 12000
	case d == 5:
		return 4000
	case d == 6:
		return 1500
	case d == 7:
		return 700
	default:
		return 400
	}
}

// Cell is one measured table entry.
type Cell struct {
	CPU     time.Duration // mean per query
	IO      time.Duration // mean simulated I/O time per query
	Reads   float64       // mean page reads per query
	Queries int           // queries actually completed
	Value   float64       // figure-specific scalar (counts, log-volume, …)
	Skipped bool
	Reason  string
}

// fmtCell renders CPU/IO cells for the tables.
func (c Cell) fmtTime(io bool) string {
	if c.Skipped {
		return "skip(" + c.Reason + ")"
	}
	d := c.CPU
	if io {
		d = c.IO
	}
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

func (c Cell) fmtValue() string {
	if c.Skipped {
		return "skip(" + c.Reason + ")"
	}
	return fmt.Sprintf("%.4g", c.Value)
}

// dataCache avoids rebuilding identical indexes across cells.
type dataCache struct {
	key   string
	tree  *rtree.Tree
	store *pager.MemStore
}

// Harness bundles config and output.
type Harness struct {
	Cfg Config
	W   io.Writer

	cache dataCache
}

// New returns a harness writing tables to w.
func New(cfg Config, w io.Writer) *Harness { return &Harness{Cfg: cfg, W: w} }

func (h *Harness) printf(format string, args ...interface{}) {
	fmt.Fprintf(h.W, format, args...)
}

// dataset builds (or reuses) the index for a generator cell.
func (h *Harness) dataset(kind datagen.Kind, n, d int) (*rtree.Tree, *pager.MemStore, error) {
	key := fmt.Sprintf("%s/%d/%d", kind, n, d)
	if h.cache.key == key {
		return h.cache.tree, h.cache.store, nil
	}
	pts, err := datagen.Generate(kind, n, d, h.Cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	store := pager.NewMemStore()
	tree := rtree.BulkLoad(store, d, pts, nil)
	store.ResetStats()
	h.cache = dataCache{key: key, tree: tree, store: store}
	return tree, store, nil
}

// realDataset resolves HOUSE/HOTEL with the configured cardinality.
func (h *Harness) realDataset(kind datagen.Kind) (*rtree.Tree, *pager.MemStore, int, error) {
	n, d := datagen.HouseN, datagen.HouseD
	if kind == datagen.HOTEL {
		n, d = datagen.HotelN, datagen.HotelD
	}
	if h.Cfg.RealN > 0 && h.Cfg.RealN < n {
		n = h.Cfg.RealN
	}
	tree, store, err := h.dataset(kind, n, d)
	return tree, store, d, err
}

// queryVec derives the qi-th deterministic query for a cell.
func (h *Harness) queryVec(d int, qi int) vec.Vector {
	return datagen.Query(d, h.Cfg.Seed*1000+int64(qi)+7)
}

// probeSkyline measures |SL| with an abort cap, so the harness can decide
// whether SP/CP are affordable for this cell. It consumes one BRS pass.
func (h *Harness) probeSkyline(tree *rtree.Tree, f score.Function, q vec.Vector, k, limit int) (int, bool) {
	res := topk.BRS(tree, f, q, k)
	sl, complete := skyline.OfNonResultLimited(tree, res, limit)
	return len(sl.Records), complete
}

// timeGIR measures one GIR computation (CPU and reads), excluding the
// BRS top-k itself (all methods share it; the paper's charts likewise
// report GIR computation).
func (h *Harness) timeGIR(tree *rtree.Tree, store *pager.MemStore, f score.Function, q vec.Vector, k int, m girint.Method, star bool) (time.Duration, int64, *girint.Stats, error) {
	res := topk.BRS(tree, f, q, k)
	readsBefore := store.Stats().Reads
	start := time.Now()
	var st *girint.Stats
	var err error
	if star {
		_, st, err = girint.ComputeStar(tree, res, girint.Options{Method: m})
	} else {
		_, st, err = girint.Compute(tree, res, girint.Options{Method: m})
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return time.Since(start), store.Stats().Reads - readsBefore, st, nil
}

// runMethodCell averages a method over queries, honoring caps and budget.
func (h *Harness) runMethodCell(tree *rtree.Tree, store *pager.MemStore, f score.Function, d, k int, m girint.Method, star bool) Cell {
	// Affordability probe for skyline-based methods.
	if m == girint.SP || m == girint.CP {
		limit := h.Cfg.SkylineCap
		if m == girint.CP {
			if c := cpHullCap(d); c < limit {
				limit = c
			}
		}
		if _, complete := h.probeSkyline(tree, f, h.queryVec(d, 0), k, limit); !complete {
			return Cell{Skipped: true, Reason: fmt.Sprintf("|SL|>%d", limit)}
		}
	}
	var cell Cell
	deadline := time.Now().Add(h.Cfg.Budget)
	var cpu time.Duration
	var reads int64
	for qi := 0; qi < h.Cfg.Queries; qi++ {
		if qi > 0 && time.Now().After(deadline) {
			break
		}
		q := h.queryVec(d, qi)
		c, r, _, err := h.timeGIR(tree, store, f, q, k, m, star)
		if err != nil {
			return Cell{Skipped: true, Reason: err.Error()}
		}
		cpu += c
		reads += r
		cell.Queries++
	}
	n := time.Duration(cell.Queries)
	cell.CPU = cpu / n
	cell.Reads = float64(reads) / float64(cell.Queries)
	cell.IO = h.Cfg.Cost.IOTime(pager.Stats{Reads: int64(math.Round(cell.Reads))})
	return cell
}

// header prints a figure banner.
func (h *Harness) header(title, caption string) {
	h.printf("\n=== %s ===\n%s\n", title, caption)
}

// row prints one aligned table row.
func (h *Harness) row(cells ...string) {
	for i, c := range cells {
		if i == 0 {
			h.printf("%-14s", c)
		} else {
			h.printf("%16s", c)
		}
	}
	h.printf("\n")
}
