package benchkit

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

// Ablation studies for the design choices DESIGN.md §4 calls out.

// AblationRow is one ablation measurement.
type AblationRow struct {
	Label string
	Wall  time.Duration
	Extra string
}

// AblationChunkSize sweeps the tuple-buffer size of the vectorized
// interpreter (the staging-buffer-fits-in-cache argument of ROF/§III).
func AblationChunkSize(cfg Config, query string, sizes []int) ([]AblationRow, error) {
	cfg = cfg.WithDefaults()
	cat := tpch.Generate(cfg.SF, cfg.Seed)
	var out []AblationRow
	for _, cs := range sizes {
		node, err := tpch.Build(cat, query)
		if err != nil {
			return nil, err
		}
		best := time.Duration(0)
		for i := 0; i < cfg.Runs; i++ {
			plan, err := algebra.Lower(node, query)
			if err != nil {
				return nil, err
			}
			lat := exec.LatencyNone
			res, err := exec.Execute(plan, exec.Options{
				Backend: exec.BackendVectorized, Workers: cfg.Workers,
				ChunkSize: cs, Latency: &lat,
			})
			if err != nil {
				return nil, err
			}
			if best == 0 || res.Wall < best {
				best = res.Wall
			}
		}
		out = append(out, AblationRow{Label: fmt.Sprintf("chunk=%d", cs), Wall: best})
	}
	return out, nil
}

// AblationHybridExploration sweeps the hybrid backend's exploration period
// (the paper fixes 5%/5%/90%; this quantifies that choice).
func AblationHybridExploration(cfg Config, query string, periods []int) ([]AblationRow, error) {
	cfg = cfg.WithDefaults()
	cat := tpch.Generate(cfg.SF, cfg.Seed)
	defer func(old int) { exec.HybridExploreEvery = old }(exec.HybridExploreEvery)
	var out []AblationRow
	for _, p := range periods {
		exec.HybridExploreEvery = p
		sys := System{Name: "hybrid", Backend: exec.BackendHybrid, Latency: exec.LatencyC}
		c, err := Measure(cat, query, sys, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Label: fmt.Sprintf("explore-every=%d", p),
			Wall:  c.Wall,
			Extra: fmt.Sprintf("morsels jit=%d vec=%d", c.Stats.MorselsCompiled, c.Stats.MorselsVectorized),
		})
	}
	return out, nil
}

// AblationKeyPacking compares aggregation key shapes: a single fixed-width
// key (the §IV-D fast path), a compound fixed-width key, and variable-size
// string keys — the cost of the packed row layout in isolation. All three
// shapes group the same synthetic data into the same 512 groups, so only
// the packing work differs.
func AblationKeyPacking(cfg Config) ([]AblationRow, error) {
	cfg = cfg.WithDefaults()
	rows := int(cfg.SF * float64(6_000_000))
	if rows < 10_000 {
		rows = 10_000
	}
	tbl := storage.NewTable("pack", types.Schema{
		{Name: "k1", Kind: types.Int64},
		{Name: "k2", Kind: types.Int64},
		{Name: "ks", Kind: types.String},
		{Name: "v", Kind: types.Float64},
	})
	labels := make([]string, 512)
	for i := range labels {
		labels[i] = fmt.Sprintf("group-%03d", i)
	}
	tbl.SetRows(rows)
	for i := 0; i < rows; i++ {
		g := i % 512
		tbl.Col("k1").I64[i] = int64(g)
		tbl.Col("k2").I64[i] = int64(g * 7)
		tbl.Col("ks").Str[i] = labels[g]
		tbl.Col("v").F64[i] = float64(i % 100)
	}
	shapes := []struct {
		label string
		keys  []string
	}{
		{"single-int-key(fastpath)", []string{"k1"}},
		{"compound-int-key", []string{"k1", "k2"}},
		{"string-key", []string{"ks"}},
	}
	var out []AblationRow
	for _, sh := range shapes {
		cols := append(append([]string{}, sh.keys...), "v")
		node := algebra.NewGroupBy(algebra.NewScan(tbl, cols...), sh.keys,
			algebra.Sum("v", "s"))
		best := Cell{}
		for i := 0; i < cfg.Runs; i++ {
			plan, err := algebra.Lower(node, "pack_"+sh.label)
			if err != nil {
				return nil, err
			}
			lat := exec.LatencyNone
			res, err := exec.Execute(plan, exec.Options{
				Backend: exec.BackendCompiling, Workers: cfg.Workers, Latency: &lat,
			})
			if err != nil {
				return nil, err
			}
			if best.Wall == 0 || res.Wall < best.Wall {
				best = Cell{QueryRecord: res.QueryRecord}
			}
		}
		out = append(out, AblationRow{
			Label: sh.label,
			Wall:  best.Wall,
			Extra: fmt.Sprintf("vm-ops/tuple=%s", best.Stats.PerTuple(best.Stats.VMOps)),
		})
	}
	return out, nil
}

// AblationROFSplit contrasts split granularities on a probe-heavy query:
// no splits (compiling), splits before probes (ROF), splits after every
// suboperator (vectorized) — the pipeline-slicing spectrum of §III.
func AblationROFSplit(cfg Config, query string) ([]AblationRow, error) {
	cfg = cfg.WithDefaults()
	cat := tpch.Generate(cfg.SF, cfg.Seed)
	var out []AblationRow
	for _, sys := range ROFSplitSystems {
		c, err := Measure(cat, query, sys, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Label: sys.Name, Wall: c.Wall,
			Extra: fmt.Sprintf("buffer-bytes/tuple=%s", c.Stats.PerTuple(c.Stats.MaterializedBytes))})
	}
	return out, nil
}

// AblationMorselSize sweeps the morsel granularity of the hybrid backend's
// adaptive decisions.
func AblationMorselSize(cfg Config, query string, sizes []int) ([]AblationRow, error) {
	cfg = cfg.WithDefaults()
	cat := tpch.Generate(cfg.SF, cfg.Seed)
	var out []AblationRow
	for _, ms := range sizes {
		node, err := tpch.Build(cat, query)
		if err != nil {
			return nil, err
		}
		best := time.Duration(0)
		for i := 0; i < cfg.Runs; i++ {
			plan, err := algebra.Lower(node, query)
			if err != nil {
				return nil, err
			}
			lat := exec.LatencyC
			res, err := exec.Execute(plan, exec.Options{
				Backend: exec.BackendHybrid, Workers: cfg.Workers,
				MorselSize: ms, Latency: &lat,
			})
			if err != nil {
				return nil, err
			}
			if best == 0 || res.Wall < best {
				best = res.Wall
			}
		}
		out = append(out, AblationRow{Label: fmt.Sprintf("morsel=%d", ms), Wall: best})
	}
	return out, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, "##", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%v\t%s\n", r.Label, r.Wall.Round(10*time.Microsecond), r.Extra)
	}
	tw.Flush()
}

// CatalogRows summarizes generated table sizes (for experiment logs).
func CatalogRows(cat *storage.Catalog) string {
	s := ""
	for _, n := range []string{"lineitem", "orders", "customer", "part", "supplier", "nation", "region"} {
		if t, err := cat.Get(n); err == nil {
			s += fmt.Sprintf("%s=%d ", n, t.Rows())
		}
	}
	return s
}
