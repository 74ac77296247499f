// The figure tables are the paper's evaluation (Section 8: Figures 6, 8,
// 14–19) at a configurable scale. A table crosses its dataset kinds and its
// cells — a Phase-2 method, GIR or GIR*, a scoring function — with one sweep
// (d, n or k); every combination is one cell, measured by the one function
// below into one row. All data is internal/datagen at the run's seed, so
// every column but cpu_ms repeats exactly.
//
// Scale and skipping: the paper's defaults (n up to 20M, d up to 8) push SP
// and CP to 10⁶–10⁸ ms in the authors' own charts. Before an SP or CP cell
// is timed its skyline is probed with an abort threshold, and a cell that
// would outgrow its cap becomes a `skipped` row instead of running for
// hours. FP has no cap — scaling to every cell is precisely the paper's
// claim. The caps are constants, so which cells are skipped is a property of
// the sizes, not of the machine.
package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/domain"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/volume"
)

// Recorded in every figure report's config, beside the default d (suiteD)
// and what a page read is charged as I/O time (pager.DefaultCostModel).
const (
	figK           = 20      // Table 2's default k
	figSkylineCap  = 30_000  // an SP or CP cell whose skyline outgrows this is skipped
	figFacetBudget = 300_000 // and so is a CH′ count that outgrows this
)

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

// cellArm is what a figure table computes in a cell, whatever the data.
type cellArm struct {
	method girint.Method
	star   bool   // the order-insensitive GIR* (Section 7.1)
	fn     string // score.ByName; "" is Linear
	full   bool   // no region: count the facets of CH′, the hull FP never builds (Figure 8)
}

var (
	synthetic = []datagen.Kind{datagen.IND, datagen.ANTI, datagen.COR}
	surrogate = []datagen.Kind{datagen.HOTEL, datagen.HOUSE}
	cpSpFp    = []cellArm{{method: girint.CP}, {method: girint.SP}, {method: girint.FP}}
)

// cell is one (kind, cellArm, sweep value): the index it needs, the k it
// asks for and the sweep value that set one of them.
type cell struct {
	cellArm
	kind        datagen.Kind
	n, d, k, at int
}

// figCells lists a figure table's cells in row order: cells that share an
// index are adjacent, so each index is built once.
func (tb *table) figCells(cfg *suiteConfig) []cell {
	var out []cell
	for _, kind := range tb.kinds {
		for _, at := range map[string][]int{"d": cfg.Dims, "n": cfg.NSweep, "k": cfg.Ks}[tb.Sweep] {
			c := cell{kind: kind, n: cfg.N, d: cfg.D, k: cfg.K, at: at}
			switch tb.Sweep {
			case "d":
				c.d = at
			case "n":
				c.n = at
			case "k":
				c.k = at
			}
			if kind == datagen.HOUSE || kind == datagen.HOTEL {
				_, c.n, c.d = datagen.Resolve(kind, cfg.RealN, 0)
			}
			for _, a := range tb.cells {
				c.cellArm = a
				out = append(out, c)
			}
		}
	}
	return out
}

// index is one generated dataset, bulk-loaded.
type index struct {
	kind  datagen.Kind
	n, d  int
	pts   []vec.Vector // record i is pts[i]
	tree  *rtree.Tree
	store *pager.MemStore
}

// runFigure measures a figure table's cells in order.
func (s *suite) runFigure(tb *table) error {
	for _, c := range tb.figCells(&s.cfg) {
		if ix := &s.idx; ix.kind != c.kind || ix.n != c.n || ix.d != c.d {
			pts, err := datagen.Generate(c.kind, c.n, c.d, s.cfg.Seed)
			if err != nil {
				return err
			}
			store := pager.NewMemStore()
			*ix = index{kind: c.kind, n: c.n, d: c.d, pts: pts, tree: rtree.BulkLoad(store, c.d, pts, nil), store: store}
		}
		what := c.method.String()
		if c.full {
			what = "CH′"
		}
		if c.star {
			what += " GIR*"
		}
		if c.fn != "" {
			what += " " + c.fn
		}
		r := row{Name: fmt.Sprintf("%s %s %s=%d", c.kind, what, tb.Sweep, c.at), At: c.at}
		if why := s.measure(tb, c, &r); why != "" {
			r = row{Name: r.Name, At: r.At, Skipped: why}
		}
		tb.Rows = append(tb.Rows, r)
	}
	return nil
}

// measure runs one cell over the suite's index into r: BRS, then the
// cell's Phase 2 — the only part timed and whose page reads are counted,
// since every method shares the top-k search and the paper's charts are of
// GIR computation. Query qi of a cell is the same vector in every table.
// A cell that cannot be measured returns why.
func (s *suite) measure(tb *table, c cell, r *row) (skipped string) {
	tree := s.idx.tree
	f, err := score.ByName(c.fn, c.d)
	if err != nil {
		return err.Error()
	}
	topK := func(qi int) *topk.Result {
		return topk.BRS(tree, f, datagen.Query(c.d, s.cfg.Seed*1000+int64(qi)+7), c.k)
	}
	if c.full {
		res := topK(0)
		pts := make([]vec.Vector, 0, len(s.idx.pts))
		for i, p := range s.idx.pts {
			if !slices.ContainsFunc(res.Records, func(rec topk.Record) bool { return rec.ID == int64(i) }) {
				pts = append(pts, p)
			}
		}
		full, err := hull.BuildLimited(append(pts, res.Kth().Point), s.cfg.FacetBudget)
		if err != nil {
			return err.Error()
		}
		r.Queries, r.HullFacets = 1, full.NumFacets()
		return ""
	}
	// SP and CP are affordable only while the skyline is.
	if c.method != girint.FP {
		limit := s.cfg.SkylineCap
		if c.method == girint.CP {
			limit = min(limit, cpHullCap(c.d))
		}
		if _, complete := skyline.OfNonResultLimited(tree, topK(0), limit); !complete {
			return fmt.Sprintf("|SL|>%d", limit)
		}
	}
	compute := girint.Compute
	if c.star {
		compute = girint.ComputeStar
	}
	r.Queries = cmp.Or(tb.queries, s.cfg.Queries)
	var cpu time.Duration
	var logVolume float64
	for qi := 0; qi < r.Queries; qi++ {
		res := topK(qi)
		reads, start := s.idx.store.Stats().Reads, time.Now()
		reg, st, err := compute(tree, res, girint.Options{Method: c.method})
		if err != nil {
			return err.Error()
		}
		cpu += time.Since(start)
		r.PageReads += s.idx.store.Stats().Reads - reads
		if qi == 0 {
			r.Stats = *st
		}
		if !tb.volume {
			continue
		}
		ratio, err := volume.RatioIn(domain.UnitBox(c.d), reg.Halfspaces())
		if err != nil {
			return err.Error()
		}
		logVolume += math.Log10(ratio)
	}
	r.CPUMS = float64((cpu / time.Duration(r.Queries)).Microseconds()) / 1e3
	r.PageReadsPerQuery = float64(r.PageReads) / float64(r.Queries)
	r.IOMS = math.Round(r.PageReadsPerQuery) * s.cfg.ReadLatUS / 1e3
	if tb.volume {
		r.Log10Volume = math.Round(1e4*logVolume/float64(r.Queries)) / 1e4
	}
	return ""
}
