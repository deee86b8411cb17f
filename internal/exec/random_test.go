package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
	"inkfuse/internal/volcano"
)

// TestRandomPlansDifferential builds random (type-correct) plans over random
// data, checks each with core.VerifyPlan and that every backend agrees with
// the Volcano oracle — the broad-coverage property test of DESIGN.md §6. The
// generator leans on the shapes the closure compiler rewrites (DESIGN.md §17):
// deep conjunctions of comparisons in every operand arrangement, conjuncts that
// must stay materialized, disjunctions of conjunctions, empty first selections,
// duplicate aggregates, compound and collated keys — and on the probe path
// (§19): join keys of every layout (one word, two columns in a word, wider than
// a word, with a string, a string alone), probe keys and carried probe columns
// of every kind read above the join, 1:N matches that outgrow a fused batch,
// build sides the bloom filter mostly or always rejects, and a second probe
// keyed on what the first one's build side supplied — and on dictionary codes
// (§20): coded, uncoded and mixed tables, so group keys (collated ones
// included) and predicates read codes, coded payloads cross a join, and string
// join keys meet across two dictionaries or a coded and an uncoded column —
// and on eager aggregation (§21): GroupBys keyed by a left outer join's probe
// keys that count its matches, so lowering counts the build rows per key
// before the join, over every build shape above, while the oracle runs the
// join first; and, over a probe table whose key is strictly ascending, names
// the counts without a second aggregation — next to probe tables whose
// ascending key repeats once, which must keep it — and on small GROUP BYs
// (§17): at most 16 groups or 17 to 40, keyed by one or two dates, under a
// filter keeping about 15 rows in 16, with float sums that come out
// differently in any other order, compared bit for bit on one worker.
func TestRandomPlansDifferential(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 24
	}
	// seen records the primitives the generated plans lowered to (and "2
	// probes" for a pipeline with two), so that the corpus provably covers the
	// probe path's shapes and not just whatever the seeds happen to draw.
	seen := map[string]bool{}
	// A GroupBy directly over a left outer join is rare among randomPlan's
	// draws, so eager aggregation's shapes get seeds of their own; the last
	// third of them probe with an ascending key.
	eagerIters, ascendingFrom := iters/2, iters/3
	// Small GROUP BYs get seeds of their own too, the odd ones over 17 to 40
	// groups.
	smallIters := iters / 4
	for i := 0; i < iters+eagerIters+smallIters; i++ {
		seed, name, eager, small := i, fmt.Sprintf("seed%d", i), i >= iters && i < iters+eagerIters, i >= iters+eagerIters
		switch {
		case eager:
			seed = i - iters
			name = fmt.Sprintf("eager%d", seed)
		case small:
			seed = i - iters - eagerIters
			name = fmt.Sprintf("small%d", seed)
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			var node algebra.Node
			collated := false
			switch {
			case eager:
				node = randomEagerPlan(r, seed >= ascendingFrom)
			case small:
				node = randomSmallGroupBy(r, seed%2 == 1)
			default:
				node, collated = randomPlan(r)
			}
			want, err := volcano.Run(node)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			wantRows := comparableRows(want, collated, small)
			// Every backend runs with the tables' facts, then without them:
			// each rewrite the facts allow must only be an optimization.
			backends, facts := allBackends(), "with facts"
			for bi, backend := range append(backends, backends...) {
				if bi == len(backends) {
					withholdFacts(node)
					facts = "without facts"
				}
				plan, err := algebra.Lower(node, "random")
				if err != nil {
					t.Fatalf("lower: %v", err)
				}
				// eager: a join table was filled from aggregated groups; a
				// build pipeline precedes its probes. A last pipeline that
				// probes it and aggregates nothing names the counts.
				eager := false
				for pi, pipe := range plan.Pipelines {
					probes, aggregates := 0, false
					_, fromGroups := pipe.Source.(*core.AggRead)
					for _, op := range pipe.Ops {
						seen[op.PrimitiveID()] = true
						eager = eager || fromGroups && op.PrimitiveID() == "joininsert"
						aggregates = aggregates || strings.HasPrefix(op.PrimitiveID(), "agglookup")
						if strings.HasPrefix(op.PrimitiveID(), "joinprobe_") {
							probes++
							if eager {
								seen["eager "+op.PrimitiveID()] = true
							}
						}
					}
					seen[fmt.Sprintf("%d probes", probes)] = true
					if eager && probes > 0 && !aggregates && pi == len(plan.Pipelines)-1 {
						seen["eager projection"] = true
					}
				}
				if err := core.VerifyPlan(plan); err != nil {
					t.Fatalf("verify: %v", err)
				}
				lat := LatencyNone
				opts := Options{
					Backend: backend, Workers: 1 + r.Intn(3),
					ChunkSize: 1 << (3 + r.Intn(6)), MorselSize: 1 << (6 + r.Intn(6)),
					Latency: &lat, Trace: small,
				}
				if small {
					// One worker folds every group's rows in row order, as
					// the oracle does: the sums agree bit for bit.
					opts.Workers = 1
				}
				res, err := Execute(plan, opts)
				if err != nil {
					t.Fatalf("%v %s: %v", backend, facts, err)
				}
				if small {
					groups := "at most 16"
					if seed%2 == 1 {
						groups = "17 to 40"
					}
					for _, pt := range res.Trace.Pipelines {
						if strings.Contains(pt.Fused, "grouped update run") {
							seen["group memo and grouped updates over "+groups+" groups"] = true
						}
						if strings.Contains(pt.Fused, "run-copy filter") {
							seen["run copies"] = true
						}
					}
				}
				gotRows := comparableRows(res.Chunk, collated, small)
				if len(gotRows) != len(wantRows) {
					t.Fatalf("%v %s: %d rows vs oracle %d", backend, facts, len(gotRows), len(wantRows))
				}
				for i := range gotRows {
					if gotRows[i] != wantRows[i] {
						t.Fatalf("%v %s: row %d\n got  %s\n want %s", backend, facts, i, gotRows[i], wantRows[i])
					}
				}
			}
		})
	}
	if testing.Short() {
		return
	}
	for _, want := range []string{
		"joinprobe_inner", "joinprobe_semi", "joinprobe_leftouter", "joinprobe_anti", "2 probes",
		"probecopy_bool", "probecopy_date", "probecopy_f64", "probecopy_i64", "probecopy_str",
		"pack_key_i64", "pack_key_date", "packstr_key", "unpack_payload_i64", "unpackstr_payload",
		"codematch", "decode", "agglookupfixed_i32", "pack_key_i32", "pack_payload_i32",
		"eager joinprobe_leftouter", "eager projection",
		"group memo and grouped updates over at most 16 groups",
		"group memo and grouped updates over 17 to 40 groups", "run copies",
	} {
		if !seen[want] {
			t.Errorf("no generated plan contains %q: the corpus lost a shape", want)
		}
	}
}

// comparableRows renders a result as sorted row strings, floats to six
// digits or, with exact, to every bit. A collated key shows whichever
// original of its group a worker met first, so with collated set the string
// columns are compared by their lowercase representative.
func comparableRows(c *storage.Chunk, collated, exact bool) []string {
	format := "%.6v"
	if exact {
		format = "%v"
	}
	out := make([]string, c.Rows())
	for i := range out {
		row := c.Row(i)
		if collated {
			for j, v := range row {
				if s, ok := v.(string); ok {
					row[j] = strings.ToLower(s)
				}
			}
		}
		out[i] = fmt.Sprintf(format, row)
	}
	sort.Strings(out)
	return out
}

// randomTable builds a table with two columns of every comparable kind, so
// predicates can compare column against column.
func randomTable(r *rand.Rand, name string, rows int) *storage.Table {
	t := storage.NewTable(name, types.Schema{
		{Name: name + "_k", Kind: types.Int64},
		{Name: name + "_j", Kind: types.Int64},
		{Name: name + "_f", Kind: types.Float64},
		{Name: name + "_g", Kind: types.Float64},
		{Name: name + "_s", Kind: types.String},
		{Name: name + "_c", Kind: types.String},
		{Name: name + "_d", Kind: types.Date},
		{Name: name + "_e", Kind: types.Date},
	})
	labels := []string{"alpha", "beta", "gamma", "delta", "PROMO X", "PROMO Y"}
	cased := []string{"alpha", "ALPHA", "Alpha", "beta", "BETA", "gamma", "delta", "DeLtA"}
	t.SetRows(rows)
	for i := 0; i < rows; i++ {
		t.Col(name + "_k").I64[i] = int64(r.Intn(50))
		t.Col(name + "_j").I64[i] = int64(r.Intn(50))
		// Halves keep float sums exact across summation orders.
		t.Col(name + "_f").F64[i] = float64(r.Intn(100)) / 2
		t.Col(name + "_g").F64[i] = float64(r.Intn(100)) / 2
		t.Col(name + "_s").Str[i] = labels[r.Intn(len(labels))]
		t.Col(name + "_c").Str[i] = cased[r.Intn(len(cased))]
		t.Col(name + "_d").I32[i] = types.MkDate(1995, 1, 1) + int32(r.Intn(300))
		t.Col(name + "_e").I32[i] = types.MkDate(1995, 1, 1) + int32(r.Intn(300))
	}
	return t
}

// codeRandomly leaves t uncoded, adds it to a catalog, which takes its facts,
// or adds it and withholds one string column's facts (a mixed table). Tables
// are added once filled: facts describe the rows they were taken from.
func codeRandomly(r *rand.Rand, t *storage.Table) {
	switch r.Intn(3) {
	case 0:
	case 1:
		storage.NewCatalog().Add(t)
	default:
		storage.NewCatalog().Add(t)
		t.Facts[t.Schema.IndexOf(t.Name+[]string{"_s", "_c"}[r.Intn(2)])] = storage.ColumnFacts{}
	}
}

// withholdFacts drops the facts of every table n scans: SetRows to the same
// rows keeps the data and forgets what was learned of it.
func withholdFacts(n algebra.Node) {
	switch x := n.(type) {
	case *algebra.Scan:
		x.Table.SetRows(x.Table.Rows())
	case *algebra.Filter:
		withholdFacts(x.In)
	case *algebra.Map:
		withholdFacts(x.In)
	case *algebra.Project:
		withholdFacts(x.In)
	case *algebra.GroupBy:
		withholdFacts(x.In)
	case *algebra.OrderBy:
		withholdFacts(x.In)
	case *algebra.HashJoin:
		withholdFacts(x.Build)
		withholdFacts(x.Probe)
	}
}

// randomCmp builds a random comparison over table p's columns: column against
// constant, constant against column, or column against column, any operator.
func randomCmp(r *rand.Rand, p string) algebra.Expr {
	var col, other, lit algebra.Expr
	switch r.Intn(4) {
	case 0:
		col, other, lit = algebra.Col(p+"_k"), algebra.Col(p+"_j"), algebra.I64(int64(r.Intn(50)))
	case 1:
		col, other, lit = algebra.Col(p+"_f"), algebra.Col(p+"_g"), algebra.F64(float64(r.Intn(100))/2)
	case 2:
		col, other, lit = algebra.Col(p+"_s"), algebra.Col(p+"_c"),
			algebra.Str([]string{"beta", "gamma", "PROMO X"}[r.Intn(3)])
	default:
		col, other = algebra.Col(p+"_d"), algebra.Col(p+"_e")
		lit = algebra.Const{K: types.Date, I32: types.MkDate(1995, 1, 1) + int32(r.Intn(300))}
	}
	op := ir.CmpOp(r.Intn(6))
	switch r.Intn(4) {
	case 0:
		return algebra.CmpE{Op: op, L: lit, R: col}
	case 1:
		return algebra.CmpE{Op: op, L: col, R: other}
	default:
		return algebra.CmpE{Op: op, L: col, R: lit}
	}
}

// randomAtom is a conjunct: mostly comparisons, sometimes a predicate the
// selection cascade has to take as a materialized bool.
func randomAtom(r *rand.Rand, p string) algebra.Expr {
	switch r.Intn(8) {
	case 0:
		return algebra.Like(algebra.Col(p+"_s"), "PROMO%")
	case 1:
		return algebra.In(algebra.Col(p+"_s"), "alpha", "gamma")
	case 2:
		return algebra.Not(randomCmp(r, p))
	default:
		return randomCmp(r, p)
	}
}

func randomConj(r *rand.Rand, p string, n int) algebra.Expr {
	es := make([]algebra.Expr, n)
	for i := range es {
		es[i] = randomAtom(r, p)
	}
	return algebra.And(es...)
}

// randomPred builds a random boolean expression over table p's columns. flag,
// when non-empty, names a bool column that may appear as a conjunct.
func randomPred(r *rand.Rand, p, flag string) algebra.Expr {
	var e algebra.Expr
	switch r.Intn(7) {
	case 0:
		e = randomAtom(r, p)
	case 1:
		e = algebra.Or(randomAtom(r, p), randomAtom(r, p))
	case 2:
		// The q19 shape: the disjunction is one conjunct, its arms are not.
		e = algebra.And(randomAtom(r, p), algebra.Or(randomConj(r, p, 2+r.Intn(2)), randomConj(r, p, 2+r.Intn(2))))
	case 3:
		// A first conjunct no row survives.
		e = algebra.And(algebra.Gt(algebra.Col(p+"_k"), algebra.I64(1000)), randomConj(r, p, 1+r.Intn(3)))
	default:
		e = randomConj(r, p, 2+r.Intn(4))
	}
	if flag != "" && r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			return algebra.And(algebra.Col(flag), e)
		}
		return algebra.And(e, algebra.Col(flag))
	}
	return e
}

// joinKeys lists the key layouts a random join draws from, as column suffixes:
// one int64 (a word), one date (half a word), two dates (two columns in one
// word), date + int64 (wider than a word), int64 + string, a string alone.
var joinKeys = [][]string{{"k"}, {"d"}, {"d", "e"}, {"d", "k"}, {"k", "s"}, {"s"}, {"k"}, {"k"}}

// randomJoin probes a new dimension table named dim with node, keyed on
// columns of the table named on (the scanned table, or the first join's
// dimension: its int64 columns then come out of a matched build row). It
// returns the join and the aggregates that read what it adds.
func randomJoin(r *rand.Rand, node algebra.Node, dim, on string, mode ir.JoinMode) (algebra.Node, []algebra.AggSpec) {
	shape := r.Intn(6)
	rows := 30 + r.Intn(100)
	if shape == 0 {
		rows += 120
	}
	tbl := randomTable(r, dim, rows)
	keys := joinKeys[r.Intn(len(joinKeys))]
	var build algebra.Node = algebra.NewScan(tbl, dim+"_k", dim+"_j", dim+"_f", dim+"_g", dim+"_s", dim+"_c", dim+"_d", dim+"_e")
	switch shape {
	case 0:
		// Few distinct keys in a larger table: a probe tuple matches a fifth
		// of it, and a batch's matches outgrow the batch many times over.
		for i := range tbl.Col(dim + "_k").I64 {
			tbl.Col(dim + "_k").I64[i] = int64(r.Intn(5))
		}
	case 1:
		build = algebra.NewFilter(build, randomPred(r, dim, ""))
	case 2:
		// A build side few keys survive into: the bloom filter rejects most
		// probes.
		build = algebra.NewFilter(build, algebra.Lt(algebra.Col(dim+"_k"), algebra.I64(int64(1+r.Intn(5)))))
	case 3:
		// No build row at all.
		build = algebra.NewFilter(build, algebra.Gt(algebra.Col(dim+"_k"), algebra.I64(1000)))
	case 4:
		// Build keys disjoint from the probe's: every chunk misses whole.
		for i := range tbl.Col(dim + "_k").I64 {
			tbl.Col(dim + "_k").I64[i] += 1000
			tbl.Col(dim + "_d").I32[i] += 1000
			tbl.Col(dim + "_s").Str[i] += "?"
		}
	}
	codeRandomly(r, tbl)
	j := &algebra.HashJoin{Build: build, Probe: node, Mode: mode}
	if on != "t" {
		// on_j is the one column of on that every mode of the first join carries.
		j.BuildKeys, j.ProbeKeys = []string{dim + "_k"}, []string{on + "_j"}
	} else {
		for _, k := range keys {
			j.BuildKeys = append(j.BuildKeys, dim+"_"+k)
			j.ProbeKeys = append(j.ProbeKeys, on+"_"+k)
		}
	}
	var aggs []algebra.AggSpec
	switch mode {
	case ir.InnerJoin:
		j.BuildCols = []string{dim + "_s", dim + "_f", dim + "_j", dim + "_e"}
		aggs = append(aggs, algebra.Sum(dim+"_f", dim+"_sf"), algebra.Sum(dim+"_j", dim+"_sj"), algebra.MaxOf(dim+"_e", dim+"_he"))
		if r.Intn(2) == 0 {
			// A predicate over the carried string: the build row's payload
			// holds its code when the dimension is coded.
			return algebra.NewFilter(j, carriedStringPred(r, dim)), aggs
		}
	case ir.LeftOuterJoin:
		j.MatchedAs = dim + "_matched"
		aggs = append(aggs, algebra.CountIf(j.MatchedAs, dim+"_hits"))
		j.BuildCols = []string{dim + "_j"}
		if r.Intn(2) == 0 {
			j.BuildCols = append(j.BuildCols, dim+"_f")
			aggs = append(aggs, algebra.Sum(dim+"_f", dim+"_sf"))
		}
		if r.Intn(3) == 0 {
			// The carried string of an unmatched row is the empty string.
			j.BuildCols = append(j.BuildCols, dim+"_s")
			return algebra.NewFilter(j, carriedStringPred(r, dim)), aggs
		}
	}
	return j, aggs
}

// carriedStringPred is a predicate over the string column a join carries from
// the dimension table dim.
func carriedStringPred(r *rand.Rand, dim string) algebra.Expr {
	return []algebra.Expr{
		algebra.In(algebra.Col(dim+"_s"), "alpha", "PROMO X", "beta?"),
		algebra.Not(algebra.Like(algebra.Col(dim+"_s"), "PROMO%")),
		algebra.Ne(algebra.Col(dim+"_s"), algebra.Str("gamma")),
		algebra.Eq(algebra.Col(dim+"_s"), algebra.Str("")),
	}[r.Intn(4)]
}

// randomPlan returns a random plan and whether its group keys are collated.
func randomPlan(r *rand.Rand) (algebra.Node, bool) {
	probe := randomTable(r, "t", 200+r.Intn(2000))
	codeRandomly(r, probe)
	var node algebra.Node = algebra.NewScan(probe, "t_k", "t_j", "t_f", "t_g", "t_s", "t_c", "t_d", "t_e")

	// Optionally a computed bool ahead of the filters: as a conjunct it is a
	// comparison with one consumer, unless an aggregate below counts it too —
	// then the filter must read it as a column.
	flag, countFlag := "", false
	if r.Intn(3) == 0 {
		flag, countFlag = "flag", r.Intn(2) == 0
		node = algebra.NewMap(node, algebra.NamedExpr{As: flag, E: randomCmp(r, "t")})
	}

	// Optional filter(s) on the probe side.
	for i := 0; i < r.Intn(3); i++ {
		node = algebra.NewFilter(node, randomPred(r, "t", flag))
	}

	// Optional computed columns.
	if r.Intn(2) == 0 {
		node = algebra.NewMap(node,
			algebra.NamedExpr{As: "m1", E: algebra.Mul(algebra.Col("t_f"),
				algebra.Sub(algebra.F64(1), algebra.Col("t_f")))},
			algebra.NamedExpr{As: "m2", E: algebra.Case(
				algebra.Like(algebra.Col("t_s"), "PROMO%"),
				algebra.Col("m1"), algebra.F64(0))},
		)
	} else {
		node = algebra.NewMap(node,
			algebra.NamedExpr{As: "m1", E: algebra.Add(algebra.Col("t_f"), algebra.F64(1))},
			algebra.NamedExpr{As: "m2", E: algebra.Mul(algebra.Col("t_f"), algebra.F64(2))},
		)
	}

	// Optional join against a dimension table, and optionally a second one.
	// last is the last join's aggregates, kept while the join is the top node.
	withJoin := r.Intn(4) > 0
	var extra, last []algebra.AggSpec
	if withJoin {
		mode := []ir.JoinMode{ir.InnerJoin, ir.SemiJoin, ir.LeftOuterJoin, ir.AntiJoin}[r.Intn(4)]
		node, last = randomJoin(r, node, "d", "t", mode)
		extra = last
		if (mode == ir.InnerJoin || mode == ir.LeftOuterJoin) && r.Intn(2) == 0 {
			// The q5 shape: the second probe's key is a column the first
			// probe's build side supplied (zero on an unmatched outer row).
			mode2 := []ir.JoinMode{ir.InnerJoin, ir.SemiJoin, ir.LeftOuterJoin, ir.AntiJoin}[r.Intn(4)]
			node, last = randomJoin(r, node, "e", "d", mode2)
			extra = append(extra, last...)
		}
	}

	// Aggregate: keyless, one fixed key (the direct lookup), one string key,
	// compound fixed, compound fixed+string, or a collated string key alone or
	// behind a fixed one (its groups are seeded with an original).
	var keys, noCase []string
	switch r.Intn(7) {
	case 0: // keyless
	case 1:
		keys = []string{"t_k"}
	case 2:
		keys = []string{"t_s"}
	case 3:
		keys = []string{"t_d", "t_k"}
	case 4:
		keys = []string{"t_k", "t_s", "t_d"}
	case 5:
		keys, noCase = []string{"t_c"}, []string{"t_c"}
	default:
		keys, noCase = []string{"t_k", "t_c"}, []string{"t_c"}
	}
	aggs := []algebra.AggSpec{
		algebra.Sum("m1", "s1"),
		algebra.Count("n"),
	}
	if r.Intn(2) == 0 {
		aggs = append(aggs, algebra.MinOf("t_f", "lo"), algebra.MaxOf("t_f", "hi"))
	}
	if r.Intn(2) == 0 {
		aggs = append(aggs, algebra.Avg("m2", "a2"))
	}
	if r.Intn(2) == 0 {
		// Duplicates: every one of these shares a slot with an aggregate above
		// or with its neighbour.
		aggs = append(aggs, algebra.Sum("m1", "s1_again"), algebra.Avg("m1", "a1"),
			algebra.Count("n_again"), algebra.Sum("m2", "s2"))
	}
	if r.Intn(2) == 0 {
		// A carried date, read above the join.
		aggs = append(aggs, algebra.MinOf("t_d", "dlo"), algebra.MaxOf("t_e", "ehi"))
	}
	aggs = append(aggs, extra...)
	if countFlag {
		aggs = append(aggs, algebra.CountIf(flag, "flagged"))
	}
	// A GroupBy directly over a left outer join is one eager aggregation may
	// split (DESIGN.md §21): on a coin flip, make it one that qualifies, or
	// that another aggregate keeps from qualifying.
	if j, ok := node.(*algebra.HashJoin); ok && j.Mode == ir.LeftOuterJoin && r.Intn(2) == 0 {
		return eagerGroupBy(r, j, last), false
	}
	return &algebra.GroupBy{In: node, Keys: keys, Aggs: aggs, NoCase: noCase}, len(noCase) > 0
}

// randomSmallGroupBy groups a random table by one or two of its dates, drawn
// from so few values that there are at most 16 groups or, with many, 17 to
// 40. A filter keeps about 15 rows in 16 and carries the columns above it;
// the aggregates are sums and counts, sometimes with a max beside them, over
// floats twelve decades apart.
func randomSmallGroupBy(r *rand.Rand, many bool) algebra.Node {
	tbl := randomTable(r, "t", 500+r.Intn(3000))
	keys := [][]string{{"t_d", "t_e"}, {"t_e", "t_d"}, {"t_d"}}[r.Intn(3)]
	a, b := 1+r.Intn(16), 1
	switch {
	case many && len(keys) == 1:
		a = 17 + r.Intn(24)
	case many:
		a, b = 5+r.Intn(4), 4+r.Intn(2)
	case len(keys) == 2:
		a, b = 1+r.Intn(4), 1+r.Intn(4)
	}
	base := types.MkDate(1995, 1, 1)
	for i := 0; i < tbl.Rows(); i++ {
		tbl.Col("t_d").I32[i] = base + int32(r.Intn(a))
		tbl.Col("t_e").I32[i] = base + int32(r.Intn(b))
		tbl.Col("t_f").F64[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)))
	}
	var node algebra.Node = algebra.NewScan(tbl, "t_k", "t_j", "t_f", "t_g", "t_d", "t_e")
	node = algebra.NewFilter(node, algebra.Lt(algebra.Col("t_j"), algebra.I64(47)))
	node = algebra.NewMap(node, algebra.NamedExpr{As: "m1", E: algebra.Mul(algebra.Col("t_f"),
		algebra.Sub(algebra.F64(1), algebra.Col("t_g")))})
	aggs := []algebra.AggSpec{algebra.Sum("t_f", "sf"), algebra.Count("n"), algebra.Sum("m1", "sm"),
		algebra.Sum("t_k", "sk"), algebra.Avg("t_g", "ag")}
	if r.Intn(4) == 0 {
		aggs = append(aggs, algebra.MaxOf("t_f", "hf"))
	}
	return algebra.NewGroupBy(node, keys, aggs...)
}

// randomEagerPlan is eagerGroupBy over a left outer join of a random probe
// table with any of randomJoin's build shapes. With ascending, the probe
// table's t_k runs up from below the build keys' range, strictly or with one
// row repeated whole (so its group keys repeat too, whichever they are), the
// table enters a catalog (which marks a strictly ascending t_k), and t_k is a
// group key.
func randomEagerPlan(r *rand.Rand, ascending bool) algebra.Node {
	probe := randomTable(r, "t", 200+r.Intn(2000))
	if ascending {
		for i := range probe.Col("t_k").I64 {
			probe.Col("t_k").I64[i] = int64(i - 20)
		}
		if r.Intn(3) == 0 {
			i := 1 + r.Intn(probe.Rows()-1)
			for c := range probe.Cols {
				probe.Cols[c].SetValue(i, probe.Cols[c].Value(i-1))
			}
		}
		storage.NewCatalog().Add(probe)
	} else {
		codeRandomly(r, probe)
	}
	for {
		node, joined := randomJoin(r, algebra.NewScan(probe, "t_k", "t_j", "t_f", "t_g", "t_s", "t_c", "t_d", "t_e"),
			"d", "t", ir.LeftOuterJoin)
		if j, ok := node.(*algebra.HashJoin); ok {
			g := eagerGroupBy(r, j, joined)
			if ascending && !slices.Contains(g.Keys, "t_k") {
				g.Keys = append(g.Keys, "t_k")
			}
			return g
		}
	}
}

// eagerGroupBy groups the left outer join j by its probe keys, and sometimes
// by t_j besides, over the count of its matches (joined[0]) — sometimes
// twice, and sometimes with the join's other aggregates (joined[1:], a sum of
// a carried column) or a count(*), either of which blocks the split.
func eagerGroupBy(r *rand.Rand, j *algebra.HashJoin, joined []algebra.AggSpec) *algebra.GroupBy {
	keys := append([]string{}, j.ProbeKeys...)
	if !slices.Contains(keys, "t_j") && r.Intn(2) == 0 {
		keys = append(keys, "t_j")
	}
	aggs := []algebra.AggSpec{joined[0]}
	switch r.Intn(5) {
	case 0:
		aggs = append(aggs, algebra.CountIf(j.MatchedAs, "hits_again"))
	case 1:
		aggs = append(aggs, joined[1:]...)
	case 2:
		aggs = append(aggs, algebra.Count("n"))
	}
	return algebra.NewGroupBy(j, keys, aggs...)
}
