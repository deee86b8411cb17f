package tpch

import (
	"fmt"
	"sort"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
	"inkfuse/internal/volcano"
)

var testCat = Generate(0.002, 42)

// noFactsCat holds testCat's data without its tables' facts: SetRows to a
// table's own rows drops what Catalog.Add learned of them, so no column is
// coded and none is marked ascending.
var noFactsCat = withoutFacts(Generate(0.002, 42))

func withoutFacts(cat *storage.Catalog) *storage.Catalog {
	for _, name := range cat.Names() {
		t := cat.MustGet(name)
		t.SetRows(t.Rows())
	}
	return cat
}

func rowsOf(c *storage.Chunk) []string {
	out := make([]string, c.Rows())
	for i := range out {
		out[i] = fmt.Sprintf("%.6v", c.Row(i))
	}
	return out
}

var backends = []exec.Backend{exec.BackendVectorized, exec.BackendCompiling, exec.BackendROF, exec.BackendHybrid}

// TestQueriesAgainstOracle runs every query on every backend, over the
// catalog with its facts and over the same data without them, and compares
// with the Volcano oracle. Ordered queries compare row-by-row; unordered
// ones as multisets.
func TestQueriesAgainstOracle(t *testing.T) {
	for _, q := range append(append([]string{}, Queries...), ExtendedQueries...) {
		t.Run(q, func(t *testing.T) {
			for _, c := range []struct {
				facts string
				cat   *storage.Catalog
			}{{"with facts", testCat}, {"without facts", noFactsCat}} {
				node, err := Build(c.cat, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := volcano.Run(node)
				if err != nil {
					t.Fatalf("volcano: %v", err)
				}
				_, ordered := node.(*algebra.OrderBy)
				wantRows := rowsOf(want)
				if !ordered {
					sort.Strings(wantRows)
				}
				if len(wantRows) == 0 {
					t.Fatalf("oracle produced no rows — test data too small to exercise %s", q)
				}
				for _, backend := range backends {
					res := run(t, node, q, backend, 2)
					gotRows := rowsOf(res.Chunk)
					if !ordered {
						sort.Strings(gotRows)
					}
					if len(gotRows) != len(wantRows) {
						t.Fatalf("%v %s: got %d rows, want %d", backend, c.facts, len(gotRows), len(wantRows))
					}
					for i := range gotRows {
						if gotRows[i] != wantRows[i] {
							t.Errorf("%v %s: row %d:\n got  %s\n want %s", backend, c.facts, i, gotRows[i], wantRows[i])
							break
						}
					}
				}
			}
		})
	}
}

// run lowers node and executes it on backend with the given workers.
func run(t *testing.T, node algebra.Node, q string, backend exec.Backend, workers int) *exec.Result {
	t.Helper()
	plan, err := algebra.Lower(node, q)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	lat := exec.LatencyNone
	res, err := exec.Execute(plan, exec.Options{Backend: backend, Workers: workers, Latency: &lat})
	if err != nil {
		t.Fatalf("%v: %v", backend, err)
	}
	return res
}

// factsProbe groups orders by o_custkey over a left outer join that counts
// its matches: the one shape here whose plan reads o_custkey's ascending
// mark (eager aggregation projects the counts of a key unique in the data,
// DESIGN.md §21). Generated o_custkey repeats, so it is never marked.
const factsProbe = `
select o_custkey, count(c_nationkey) as n
from orders left outer join customer on o_custkey = c_custkey
group by o_custkey
order by o_custkey`

// TestFactsOnlyOptimize checks that every rewrite a table's facts allow — a
// scan of codes, a code table for a predicate, a projection for a GROUP BY
// keyed by an ascending column — is only an optimization: on one worker each
// query answers bit for bit the same with the facts and without them. Where
// the query orders its rows totally they compare in order, otherwise as bags.
func TestFactsOnlyOptimize(t *testing.T) {
	for _, q := range append(append([]string{"factsProbe"}, Queries...), ExtendedQueries...) {
		t.Run(q, func(t *testing.T) {
			text, ok := Text(q)
			if !ok {
				text = factsProbe
			}
			build := func(cat *storage.Catalog) algebra.Node {
				stmt, err := sql.Compile(cat, text)
				if err != nil {
					t.Fatal(err)
				}
				return stmt.Root
			}
			with, without := build(testCat), build(noFactsCat)
			for _, backend := range backends {
				res := run(t, with, q, backend, 1)
				a, b := exactRows(res), exactRows(run(t, without, q, backend, 1))
				if !totallyOrdered(t, with, res) {
					sort.Strings(a)
					sort.Strings(b)
				}
				if len(a) != len(b) {
					t.Fatalf("%v: %d rows with facts, %d without", backend, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%v: row %d:\n with facts    %s\n without facts %s", backend, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// totallyOrdered reports whether node orders its result res totally: it is
// an ORDER BY and no two neighbouring rows tie on its keys.
func totallyOrdered(t *testing.T, node algebra.Node, res *exec.Result) bool {
	o, ok := node.(*algebra.OrderBy)
	if !ok {
		return false
	}
	schema, err := o.Schema()
	if err != nil {
		t.Fatal(err)
	}
	key := func(r int) string {
		row := res.Chunk.Row(r)
		k := make([]any, len(o.Keys))
		for i, name := range o.Keys {
			k[i] = row[schema.IndexOf(name)]
		}
		return fmt.Sprint(k...)
	}
	for r := 1; r < res.Chunk.Rows(); r++ {
		if key(r) == key(r-1) {
			return false
		}
	}
	return true
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(0.001, 7)
	b := Generate(0.001, 7)
	for _, name := range []string{"lineitem", "orders", "customer", "part"} {
		ta, tb := a.MustGet(name), b.MustGet(name)
		if ta.Rows() != tb.Rows() {
			t.Fatalf("%s: row counts differ", name)
		}
		for i := 0; i < min(ta.Rows(), 100); i++ {
			ra := fmt.Sprintf("%v", rowOf(ta, i))
			rb := fmt.Sprintf("%v", rowOf(tb, i))
			if ra != rb {
				t.Fatalf("%s row %d differs: %s vs %s", name, i, ra, rb)
			}
		}
	}
}

func rowOf(t *storage.Table, i int) []any {
	out := make([]any, len(t.Cols))
	for j, c := range t.Cols {
		out[j] = c.Value(i)
	}
	return out
}

func TestGeneratorScaling(t *testing.T) {
	small := Generate(0.001, 1)
	big := Generate(0.004, 1)
	s := small.MustGet("orders").Rows()
	b := big.MustGet("orders").Rows()
	if b < 3*s || b > 5*s {
		t.Fatalf("orders scaling off: %d vs %d", s, b)
	}
	li := big.MustGet("lineitem").Rows()
	ord := big.MustGet("orders").Rows()
	if li < 3*ord || li > 5*ord {
		t.Fatalf("lineitem per order out of range: %d lineitems for %d orders", li, ord)
	}
}
