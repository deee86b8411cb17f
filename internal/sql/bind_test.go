package sql_test

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

// preAggMap returns the pre-aggregate Map under the statement's GroupBy.
func preAggMap(t *testing.T, root algebra.Node) *algebra.Map {
	t.Helper()
	for n := root; n != nil; {
		switch x := n.(type) {
		case *algebra.Project:
			n = x.In
		case *algebra.OrderBy:
			n = x.In
		case *algebra.Map:
			n = x.In
		case *algebra.GroupBy:
			m, ok := x.In.(*algebra.Map)
			if !ok {
				t.Fatalf("no pre-aggregate map under the GroupBy, got %T", x.In)
			}
			return m
		default:
			n = nil
		}
	}
	t.Fatal("no GroupBy")
	return nil
}

// TestRepeatedAggregateArgument: a non-leaf subexpression occurring more than
// once among one SELECT's aggregate arguments binds as one map column that
// every occurrence reads; a different literal or a ? keeps the occurrences
// apart. Every form answers like the Volcano oracle.
func TestRepeatedAggregateArgument(t *testing.T) {
	const text = `select l_returnflag,
	       sum(l_extendedprice * (%s - l_discount)) as disc_price,
	       sum(l_extendedprice * (%s - l_discount) * (1 + l_tax)) as charge
	from lineitem group by l_returnflag order by l_returnflag`
	compile := func(a, b string) *sql.Statement {
		stmt, err := sql.Compile(testCat, fmt.Sprintf(text, a, b))
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	same, other, param := compile("1", "1"), compile("1", "2"), compile("?", "?")

	// Merged: the charge column reads the discounted price's column.
	m := preAggMap(t, same.Root)
	if len(m.Exprs) != 2 {
		t.Fatalf("1 - d twice: %d map columns, want 2", len(m.Exprs))
	}
	if cols := m.Exprs[1].E.Columns(nil); cols[0] != m.Exprs[0].As {
		t.Fatalf("the second column reads %v, want the first column %q", cols, m.Exprs[0].As)
	}
	// The dropped occurrence's literal keeps its ref.
	if len(same.Args) != len(other.Args) {
		t.Fatalf("merged statement has %d args, unmerged %d", len(same.Args), len(other.Args))
	}
	for name, stmt := range map[string]*sql.Statement{"2 - d": other, "?": param} {
		m := preAggMap(t, stmt.Root)
		if len(m.Exprs) != 2 {
			t.Fatalf("%s: %d map columns, want 2", name, len(m.Exprs))
		}
		for _, c := range m.Exprs[1].E.Columns(nil) {
			if c == m.Exprs[0].As {
				t.Fatalf("%s: the second column reads the first: the occurrences merged", name)
			}
		}
		if stmt.Fingerprint == same.Fingerprint {
			t.Fatalf("%s: shares the merged statement's fingerprint", name)
		}
	}

	run := func(stmt *sql.Statement, vals []any, backend exec.Backend) []string {
		plan, params, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := stmt.BindArgs(params, vals); err != nil {
			t.Fatal(err)
		}
		lat := exec.LatencyNone
		res, err := exec.Execute(plan, exec.Options{Backend: backend, Workers: 2, Latency: &lat})
		if err != nil {
			t.Fatal(err)
		}
		return rowStrings(res.Chunk)
	}
	oracle := func(stmt *sql.Statement) []string {
		c, err := volcano.Run(stmt.Root)
		if err != nil {
			t.Fatal(err)
		}
		return rowStrings(c)
	}
	cases := []struct {
		name string
		stmt *sql.Statement
		vals []any
		want []string
	}{
		{"1 - d twice", same, nil, oracle(same)},
		{"2 - d", other, nil, oracle(other)},
		{"? twice", param, []any{1.0, 1.0}, oracle(same)},
	}
	for _, tc := range cases {
		for _, backend := range []exec.Backend{exec.BackendVectorized, exec.BackendCompiling} {
			if got := run(tc.stmt, tc.vals, backend); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s on %v:\n got  %v\n want %v", tc.name, backend, got, tc.want)
			}
		}
	}
}

func rowStrings(c *storage.Chunk) []string {
	out := make([]string, c.Rows())
	for i := range out {
		out[i] = fmt.Sprintf("%.6v", c.Row(i))
	}
	sort.Strings(out)
	return out
}
