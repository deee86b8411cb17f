package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// A shape is one plan shape: every text it draws differs only in literals, so
// all of them share one sql.Statement.Fingerprint (the server auto-
// parameterises literals). family groups shapes for the per-family latency
// medians behind query_ms_p50_gmean.
type shape struct {
	family string
	sql    func(r *rand.Rand) string
}

// A workload is one traffic mix against one catalog size. The table in
// README.md says why each exists.
type workload struct {
	name    string
	sf      float64
	clients int
	// shapes builds the workload's shapes from the run seed.
	shapes func(seed int64) []shape
	// shuffle redraws the shape order every round; otherwise shapes rotate in
	// the listed order.
	shuffle bool
	// hit workloads warm up with one execution of every shape, so the timed
	// window sees only plan-cache hits. The ad-hoc workload warms up with its
	// own traffic for adhocWarmupShare of the window: there the user pays the
	// cold path on every query.
	hit bool
	// verify is how many requests a run checks against the oracle.
	verify int
	// setups is how many times a run starts a server and warms it up; setup_s
	// is the median.
	setups int
	// replayPerSecond sizes the traced replay: it replays
	// replayPerSecond × --seconds requests, a fixed count, so its counters
	// repeat from run to run.
	replayPerSecond float64
}

const (
	adhocShapeCount  = 512
	adhocWarmupShare = 0.08 // 2 s before a 25 s window
	// warmUpRounds bounds how often a hit workload's warm-up sends one shape.
	warmUpRounds = 50
)

var workloads = []workload{
	{
		name: "hot_shapes_sf001", sf: 0.01, clients: 2, shuffle: true, hit: true,
		shapes:          func(int64) []shape { return tpchShapes("q1", "q3", "q4", "q5", "q6", "q13", "q14", "q19") },
		verify:          8,
		setups:          9,
		replayPerSecond: 24,
	},
	{
		// No reshuffle: adhocShapes is in a seeded order already, and rotating
		// through it puts 511 other shapes between two uses of one, 8 times what
		// the plan cache holds, so every request is a miss.
		name: "adhoc_shapes_sf01", sf: 0.1, clients: 1,
		shapes:          func(seed int64) []shape { return adhocShapes(seed, adhocShapeCount) },
		verify:          8,
		setups:          3,
		replayPerSecond: 5,
	},
	{
		name: "scan_agg_sf1", sf: 1, clients: 1, hit: true,
		shapes:          func(int64) []shape { return tpchShapes("q1", "q6") },
		verify:          2,
		setups:          3,
		replayPerSecond: 0.6,
	},
	{
		name: "join_sf05", sf: 0.5, clients: 1, hit: true,
		shapes:          func(int64) []shape { return tpchShapes("q3", "q5", "q13", "q19") },
		verify:          4,
		setups:          3,
		replayPerSecond: 0.72,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A stream is one client's request sequence: the same (shapes, seed, client)
// always yields the same texts in the same order.
type stream struct {
	shapes  []shape
	shuffle bool
	r       *rand.Rand
	order   []int
	pos     int
}

func newStream(w workload, shapes []shape, seed int64, client int) *stream {
	s := &stream{shapes: shapes, shuffle: w.shuffle, order: make([]int, len(shapes))}
	s.r = rand.New(rand.NewSource(seed*1000003 + int64(client)))
	for i := range s.order {
		s.order[i] = i
	}
	s.pos = len(s.order) // first next() starts a round
	return s
}

// next returns the next request: the index of its shape and its SQL text.
func (s *stream) next() (int, string) {
	if s.pos == len(s.order) {
		s.pos = 0
		if s.shuffle {
			s.r.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		}
	}
	i := s.order[s.pos]
	s.pos++
	return i, s.shapes[i].sql(s.r)
}

// --- TPC-H shapes with literals redrawn inside the substitution ranges of the
// TPC-H specification (§2.4). Texts follow internal/tpch.SQL.

func tpchShapes(names ...string) []shape {
	out := make([]shape, len(names))
	for i, n := range names {
		out[i] = shape{family: n, sql: tpchTemplates[n]}
	}
	return out
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = [][]string{
		{"SM CASE", "SM BOX", "SM PACK", "SM PKG"},
		{"MED BAG", "MED BOX", "MED PKG", "MED PACK"},
		{"LG CASE", "LG BOX", "LG PACK", "LG PKG"},
		{"JUMBO CASE", "JUMBO BOX", "JUMBO PACK", "JUMBO PKG"},
		{"WRAP CASE", "WRAP BOX", "WRAP PACK", "WRAP PKG"},
	}
	q13Word1 = []string{"special", "pending", "unusual", "express"}
	q13Word2 = []string{"packages", "requests", "accounts", "deposits"}
)

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

func date(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

func lit(t time.Time) string { return "date '" + t.Format("2006-01-02") + "'" }

func brand(r *rand.Rand) string { return fmt.Sprintf("Brand#%d%d", between(r, 1, 5), between(r, 1, 5)) }

func inList(xs []string) string { return "('" + strings.Join(xs, "', '") + "')" }

var tpchTemplates = map[string]func(r *rand.Rand) string{
	"q1": func(r *rand.Rand) string {
		return `select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
       avg(l_quantity) as avg_qty,
       avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc,
       count(*) as count_order
from lineitem
where l_shipdate <= ` + lit(date(1998, 12, 1).AddDate(0, 0, -between(r, 60, 120))) + `
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus`
	},
	"q3": func(r *rand.Rand) string {
		d := lit(date(1995, 3, between(r, 1, 31)))
		return `select l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) as revenue,
       o_orderdate, o_shippriority
from customer
     join orders on c_custkey = o_custkey
     join lineitem on o_orderkey = l_orderkey
where c_mktsegment = '` + pick(r, segments) + `'
  and o_orderdate < ` + d + `
  and l_shipdate > ` + d + `
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10`
	},
	"q4": func(r *rand.Rand) string {
		start := date(1993, 1, 1).AddDate(0, between(r, 0, 57), 0)
		return `select o_orderpriority, count(*) as order_count
from orders
where o_orderdate >= ` + lit(start) + `
  and o_orderdate < ` + lit(start.AddDate(0, 3, 0)) + `
  and exists (
    select l_orderkey from lineitem
    where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)
group by o_orderpriority
order by o_orderpriority`
	},
	"q5": func(r *rand.Rand) string {
		start := date(between(r, 1993, 1997), 1, 1)
		return `select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from supplier join (
       region
       join nation on r_regionkey = n_regionkey
       join customer on n_nationkey = c_nationkey
       join orders on c_custkey = o_custkey
       join lineitem on o_orderkey = l_orderkey
     ) on s_suppkey = l_suppkey and s_nationkey = c_nationkey
where r_name = '` + pick(r, regions) + `'
  and o_orderdate >= ` + lit(start) + `
  and o_orderdate < ` + lit(start.AddDate(1, 0, 0)) + `
group by n_name
order by revenue desc`
	},
	"q6": func(r *rand.Rand) string {
		start := date(between(r, 1993, 1997), 1, 1)
		disc := between(r, 2, 9)
		return `select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= ` + lit(start) + `
  and l_shipdate < ` + lit(start.AddDate(1, 0, 0)) + `
  and l_discount >= ` + fmt.Sprintf("0.%02d and l_discount <= 0.%02d", disc-1, disc+1) + `
  and l_quantity < ` + fmt.Sprint(between(r, 24, 25))
	},
	"q13": func(r *rand.Rand) string {
		return `select c_count, count(*) as custdist
from (
  select c_custkey, count(o_orderkey) as c_count
  from customer left outer join orders
       on c_custkey = o_custkey and o_comment not like '%` + pick(r, q13Word1) + `%` + pick(r, q13Word2) + `%'
  group by c_custkey
) as pc
group by c_count
order by custdist desc, c_count desc`
	},
	"q14": func(r *rand.Rand) string {
		start := date(1993, 1, 1).AddDate(0, between(r, 0, 59), 0)
		return `select 100 * sum(case when p_type like 'PROMO%'
                      then l_extendedprice * (1 - l_discount)
                      else 0 end)
           / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from part join lineitem on p_partkey = l_partkey
where l_shipdate >= ` + lit(start) + `
  and l_shipdate < ` + lit(start.AddDate(0, 1, 0))
	},
	"q19": func(r *rand.Rand) string {
		arm := func(cont []string, qlo, size int) string {
			q := between(r, qlo, qlo+9)
			return fmt.Sprintf(`(p_brand = '%s'
        and p_container in %s
        and l_quantity >= %d and l_quantity <= %d
        and p_size >= 1 and p_size <= %d)`, brand(r), inList(cont), q, q+10, size)
		}
		return `select sum(l_extendedprice * (1 - l_discount)) as revenue
from part join lineitem on p_partkey = l_partkey
where l_shipinstruct = 'DELIVER IN PERSON'
  and l_shipmode in ('AIR', 'AIR REG')
  and (` + arm(containers[0], 1, 5) + `
    or ` + arm(containers[1], 10, 10) + `
    or ` + arm(containers[2], 20, 15) + `)`
	},
}
