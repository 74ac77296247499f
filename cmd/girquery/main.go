// Command girquery runs an interactive-style demonstration: it generates
// a dataset in-process, answers a top-k query, computes its GIR, and
// prints everything a front-end like Figure 1 would need — the result, the
// minimal bounding constraints with their perturbation attributions, the
// per-weight slide-bar bounds (LIRs), the MAH, and the volume-ratio
// robustness score.
//
// Usage:
//
//	girquery -kind IND -n 100000 -d 4 -k 10 -q 0.6,0.5,0.6,0.7
//	girquery -kind HOTEL -k 10 -method SP -scoring Mixed
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/volume"
)

func main() {
	kind := flag.String("kind", "IND", "dataset: IND, COR, ANTI, HOUSE, HOTEL")
	n := flag.Int("n", 100000, "cardinality (HOUSE/HOTEL default to paper sizes; -n caps them)")
	d := flag.Int("d", 4, "dimensionality (fixed for HOUSE=6, HOTEL=4)")
	k := flag.Int("k", 10, "result size")
	qs := flag.String("q", "", "comma-separated query weights in [0,1] (default: random)")
	method := flag.String("method", "FP", "GIR method: SP, CP, FP, Exhaustive")
	scoring := flag.String("scoring", "Linear", "scoring: Linear, Polynomial, Mixed")
	star := flag.Bool("star", false, "compute the order-insensitive GIR*")
	seed := flag.Int64("seed", 1, "random seed")
	spaceName := flag.String("space", "box", "query space: box ([0,1]^d) or simplex (the paper's Σw=1 convention; the query is sum-normalized)")
	flag.Parse()

	space, err := gir.ParseSpace(*spaceName)
	if err != nil {
		fatal("bad -space: %v", err)
	}
	kd, nn, dd := datagen.Resolve(datagen.Kind(strings.ToUpper(*kind)), *n, *d)
	pts, err := datagen.Generate(kd, nn, dd, *seed)
	if err != nil {
		fatal("%v", err)
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	fmt.Printf("dataset: %s, n=%d, d=%d, query space: %v\n", kd, nn, dd, space)
	buildStart := time.Now()
	ds, err := gir.NewDatasetInSpace(raw, space)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("R*-tree bulk-loaded in %v\n", time.Since(buildStart).Round(time.Millisecond))

	q, err := parseQuery(*qs, dd, *seed)
	if err != nil {
		fatal("%v", err)
	}
	if space == gir.SpaceSimplex {
		q = space.Normalize(q)
	}
	sc, err := parseScoring(*scoring)
	if err != nil {
		fatal("%v", err)
	}
	m, err := parseMethod(*method)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("query: q=%s, k=%d, scoring=%s\n\n", fmtVec(q), *k, *scoring)
	ds.ResetIOStats()
	res, err := ds.TopKFunc(q, *k, sc)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("top-%d result (BRS, %d page reads):\n", *k, ds.IOStats().PageReads)
	for i, r := range res.Records {
		fmt.Printf("  %2d. record %-8d score %.4f  attrs %s\n", i+1, r.ID, r.Score, fmtVec(r.Attrs))
	}

	var g *gir.GIR
	if *star {
		g, err = ds.ComputeGIRStar(res, m)
	} else {
		g, err = ds.ComputeGIR(res, m)
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\n%s computed in %v (%d page reads)\n", g, g.Stats.Elapsed.Round(time.Microsecond), g.Stats.PageReads)
	st := g.Stats
	fmt.Printf("stats: |T|-era skyline=%d, hull=%d, starFacets=%d, critical=%d, constraints %d→%d\n",
		st.SkylineSize, st.HullVertices, st.StarFacets, st.CriticalCount, st.RawConstraints, st.Constraints)

	fmt.Println("\nbounding constraints (crossing each boundary causes):")
	for i, c := range g.Constraints() {
		fmt.Printf("  %2d. %s  [normal %s]\n", i+1, c.Description, fmtVec(c.Normal))
	}

	fmt.Println("\nper-weight validity ranges (LIRs / slide-bar bounds):")
	for i, iv := range g.LIRs() {
		fmt.Printf("  w%d ∈ [%.4f, %.4f]   (now %.4f)\n", i+1, iv.Lo, iv.Hi, q[i])
		fmt.Printf("       at lower bound: %s\n", iv.LoPerturbation)
		fmt.Printf("       at upper bound: %s\n", iv.HiPerturbation)
	}

	lo, hi := g.MAH()
	fmt.Println("\nmaximum axis-parallel hyper-rectangle (simultaneous bounds):")
	for i := range lo {
		fmt.Printf("  w%d ∈ [%.4f, %.4f]\n", i+1, lo[i], hi[i])
	}

	switch ratio, err := g.VolumeRatio(); {
	case err == nil:
		fmt.Printf("\nrobustness: GIR covers %.3g of the query space\n", ratio)
		fmt.Printf("(probability a uniformly random query vector preserves this result)\n")
	case errors.Is(err, volume.ErrEmpty):
		fmt.Println("\nrobustness: the GIR has no interior")
	default:
		fmt.Printf("\nrobustness: %v\n", err)
	}
}

func parseQuery(s string, d int, seed int64) ([]float64, error) {
	if s == "" {
		return datagen.Query(d, seed), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("query has %d weights, dataset is %d-dimensional", len(parts), d)
	}
	q := make([]float64, d)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		q[i] = v
	}
	return q, nil
}

func parseScoring(s string) (gir.Scoring, error) {
	switch strings.ToLower(s) {
	case "linear", "":
		return gir.Linear, nil
	case "polynomial":
		return gir.Polynomial, nil
	case "mixed":
		return gir.Mixed, nil
	}
	return 0, fmt.Errorf("unknown scoring %q", s)
}

func parseMethod(s string) (gir.Method, error) {
	switch strings.ToUpper(s) {
	case "SP":
		return gir.SP, nil
	case "CP":
		return gir.CP, nil
	case "FP", "":
		return gir.FP, nil
	case "EXHAUSTIVE":
		return gir.Exhaustive, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "girquery: "+format+"\n", args...)
	os.Exit(1)
}
