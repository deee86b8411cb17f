package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
)

// adhocFamily is one template family of the ad-hoc generator. A shape is a
// choice of (non-empty conjunct subset, aggregate list, group-by columns);
// each choice is a different plan structure, hence a different fingerprint.
// Conjuncts draw their literals per request.
type adhocFamily struct {
	name      string
	from      string
	conjuncts []func(r *rand.Rand) string
	aggs      []string
	groupBys  []string // "" = one global group; every column list has fewer than 100 groups
}

func year(r *rand.Rand) int { return between(r, 1993, 1997) }

// A shape may hold both a lower and an upper date bound; drawing them from
// disjoint year ranges keeps the interval non-empty.
func earlyYear(r *rand.Rand) int { return between(r, 1992, 1994) }
func lateYear(r *rand.Rand) int  { return between(r, 1995, 1998) }

var adhocFamilies = []adhocFamily{
	{
		name: "lineitem",
		from: "lineitem",
		conjuncts: []func(r *rand.Rand) string{
			func(r *rand.Rand) string { return "l_shipdate >= " + lit(date(earlyYear(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string { return "l_shipdate < " + lit(date(lateYear(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string {
				d := between(r, 1, 8)
				return fmt.Sprintf("l_discount between 0.%02d and 0.%02d", d, d+2)
			},
			func(r *rand.Rand) string { return fmt.Sprint("l_quantity < ", between(r, 10, 45)) },
			func(r *rand.Rand) string {
				return "l_shipmode in " + inList(shipmodes[between(r, 0, 2):between(r, 4, 7)])
			},
			func(r *rand.Rand) string { return "l_returnflag = '" + pick(r, []string{"R", "A", "N"}) + "'" },
			func(r *rand.Rand) string { return "l_shipinstruct = '" + pick(r, instructs) + "'" },
			func(r *rand.Rand) string { return fmt.Sprintf("l_tax <= 0.%02d", between(r, 2, 7)) },
		},
		aggs: []string{
			"sum(l_extendedprice * l_discount) as revenue",
			"sum(l_quantity) as qty, count(*) as n",
			"avg(l_extendedprice) as avg_price, max(l_discount) as max_disc",
			"sum(l_extendedprice * (1 - l_discount)) as disc_price, min(l_quantity) as min_qty, count(*) as n",
		},
		groupBys: []string{"", "l_returnflag", "l_shipmode", "l_returnflag, l_linestatus"},
	},
	{
		name: "orders_lineitem",
		from: "orders join lineitem on o_orderkey = l_orderkey",
		conjuncts: []func(r *rand.Rand) string{
			func(r *rand.Rand) string { return "o_orderdate >= " + lit(date(earlyYear(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string { return "o_orderdate < " + lit(date(lateYear(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string { return "o_orderpriority = '" + pick(r, priorities) + "'" },
			func(r *rand.Rand) string {
				return "l_shipmode in " + inList(shipmodes[between(r, 0, 2):between(r, 4, 7)])
			},
			func(r *rand.Rand) string { return fmt.Sprint("l_quantity >= ", between(r, 5, 40)) },
			func(r *rand.Rand) string { return fmt.Sprintf("l_discount <= 0.%02d", between(r, 3, 9)) },
			func(r *rand.Rand) string { return "l_shipdate > " + lit(date(year(r), between(r, 1, 12), 15)) },
		},
		aggs: []string{
			"sum(l_extendedprice * (1 - l_discount)) as revenue",
			"count(*) as n, sum(l_quantity) as qty",
			"avg(l_discount) as avg_disc, max(l_extendedprice) as max_price",
			"sum(l_extendedprice) as price, min(l_tax) as min_tax, count(*) as n",
		},
		groupBys: []string{"", "o_orderpriority", "l_shipmode", "o_shippriority"},
	},
	{
		name: "customer_orders",
		from: "customer join orders on c_custkey = o_custkey",
		conjuncts: []func(r *rand.Rand) string{
			func(r *rand.Rand) string { return "c_mktsegment = '" + pick(r, segments) + "'" },
			func(r *rand.Rand) string { return "o_orderdate >= " + lit(date(earlyYear(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string { return "o_orderdate < " + lit(date(lateYear(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string {
				return "o_orderpriority in " + inList(priorities[between(r, 0, 1):between(r, 3, 5)])
			},
			func(r *rand.Rand) string { return fmt.Sprint("c_nationkey < ", between(r, 5, 20)) },
			func(r *rand.Rand) string { return "o_comment not like '%" + pick(r, q13Word2) + "%'" },
		},
		aggs: []string{
			"count(*) as n",
			"count(*) as n, max(o_orderdate) as last_order",
			"sum(o_orderkey) as key_sum, min(o_custkey) as min_cust",
			"max(o_custkey) as max_cust, min(o_orderdate) as first_order, count(*) as n",
		},
		groupBys: []string{"", "c_mktsegment", "o_orderpriority", "c_nationkey", "c_mktsegment, o_orderpriority"},
	},
	{
		name: "part_lineitem",
		from: "part join lineitem on p_partkey = l_partkey",
		conjuncts: []func(r *rand.Rand) string{
			func(r *rand.Rand) string { return "p_brand = '" + brand(r) + "'" },
			func(r *rand.Rand) string { return "p_container in " + inList(containers[between(r, 0, 4)]) },
			func(r *rand.Rand) string {
				s := between(r, 1, 30)
				return fmt.Sprintf("p_size between %d and %d", s, s+15)
			},
			func(r *rand.Rand) string { return fmt.Sprint("l_quantity >= ", between(r, 5, 40)) },
			func(r *rand.Rand) string { return "l_shipdate >= " + lit(date(year(r), between(r, 1, 12), 1)) },
			func(r *rand.Rand) string { return "l_shipinstruct = '" + pick(r, instructs) + "'" },
			func(r *rand.Rand) string {
				return "p_type like '" + pick(r, []string{"PROMO", "SMALL", "LARGE", "ECONOMY"}) + "%'"
			},
		},
		aggs: []string{
			"sum(l_extendedprice * (1 - l_discount)) as revenue",
			"count(*) as n, avg(l_quantity) as avg_qty",
			"max(l_extendedprice) as max_price, min(p_size) as min_size",
			"sum(l_quantity) as qty, sum(l_extendedprice * l_discount) as disc, count(*) as n",
		},
		groupBys: []string{"", "p_brand", "p_container", "l_shipmode"},
	},
}

var emptyUnsafe = regexp.MustCompile(`\b(avg|min|max)\(`)

// adhocShapes picks n distinct shapes, the same number from every family, in
// a seeded order.
func adhocShapes(seed int64, n int) []shape {
	r := rand.New(rand.NewSource(seed))
	per := n / len(adhocFamilies)
	var out []shape
	for _, f := range adhocFamilies {
		// An aggregate list with avg, min or max pairs only with a group-by:
		// over an empty input its single global group would hold NaN or ±Inf,
		// which the server cannot encode as JSON, and the benchmark sends only
		// requests that succeed.
		type combo struct{ aggs, groupBy string }
		var combos []combo
		for _, g := range f.groupBys {
			for _, a := range f.aggs {
				if g != "" || !emptyUnsafe.MatchString(a) {
					combos = append(combos, combo{a, g})
				}
			}
		}
		subsets := 1<<len(f.conjuncts) - 1 // non-empty conjunct subsets
		space := subsets * len(combos)
		if per > space {
			panic(fmt.Sprintf("bench: family %s has %d shapes, %d wanted", f.name, space, per))
		}
		// A systematic sample: every (space/per)-th shape of the family from a
		// seeded start. Every seed then gets each aggregate list, group-by and
		// conjunct about equally often, so the cost mix of the 512 shapes, and
		// with it the latency tail, differs little from seed to seed: over ten
		// seeds query_ms_p90 spread by 11 % with a uniform draw and by 5 % with
		// this one.
		start := r.Intn(space)
		for j := 0; j < per; j++ {
			choice := (start + j*space/per) % space
			c := combos[choice/subsets]
			out = append(out, adhocShape(f, choice%subsets+1, c.aggs, c.groupBy))
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func adhocShape(f adhocFamily, mask int, aggs, groupBy string) shape {
	return shape{family: f.name, sql: func(r *rand.Rand) string {
		var where []string
		for i, c := range f.conjuncts {
			if mask&(1<<i) != 0 {
				where = append(where, c(r))
			}
		}
		var b strings.Builder
		b.WriteString("select ")
		if groupBy != "" {
			b.WriteString(groupBy + ", ")
		}
		b.WriteString(aggs + "\nfrom " + f.from + "\nwhere " + strings.Join(where, "\n  and "))
		if groupBy != "" {
			// Ordering by the whole key makes the first max_rows rows of the
			// answer the same on every engine.
			b.WriteString("\ngroup by " + groupBy + "\norder by " + groupBy)
		}
		return b.String()
	}}
}
