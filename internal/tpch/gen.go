// Package tpch provides a from-scratch, deterministic TPC-H-style data
// generator and the SQL texts of the eight queries the paper evaluates (Q1,
// Q3, Q4, Q5, Q6, Q13, Q14, Q19 — chosen to cover all TPC-H choke points,
// paper §VII) plus Q10 and Q12. Build binds a text into its plan through
// internal/sql; InkFuse, which has no SQL frontend, builds the same plans by
// hand.
//
// The generator reproduces the value domains and distributions the eight
// queries are sensitive to: date ranges and offsets, return-flag/line-status
// rules, price formulas, priorities, segments, brands/types/containers, and
// order comments with occasional "special ... requests" fragments. Row
// counts scale linearly with the scale factor exactly as in dbgen
// (SF 1 ≈ 6M lineitem rows).
package tpch

import (
	"fmt"

	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// rng is a splitmix64 PRNG: deterministic across platforms.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := seed
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a uniform int in [lo, hi].
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// f64 returns a uniform float in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Value domains (TPC-H spec §4.2.2-4.2.3, trimmed to what the queries read).
var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []struct {
		name   string
		region int32
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
		{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
		{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
		{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
		{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
		{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	containerSyl1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containerSyl2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	commentWords = []string{
		"carefully", "final", "deposits", "accounts", "pending", "furiously",
		"ironic", "instructions", "theodolites", "platelets", "quickly",
		"blithely", "bold", "silent", "express", "regular", "even", "packages",
		"sleep", "across", "foxes", "asymptotes", "courts", "dependencies",
	}
)

// Generator dates (spec: orders span 1992-01-01 .. 1998-08-02).
var (
	startDate = types.MkDate(1992, 1, 1)
	endDate   = types.MkDate(1998, 8, 2)
	cutoff    = types.MkDate(1995, 6, 17) // returnflag/linestatus pivot
)

// Sizes at scale factor 1.
const (
	sfSupplier = 10_000
	sfCustomer = 150_000
	sfOrders   = 1_500_000
	sfPart     = 200_000
)

// Generate builds all seven tables the queries need at the given scale
// factor. The same (sf, seed) always produces identical data.
func Generate(sf float64, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	cat.Add(genRegion())
	cat.Add(genNation())
	cat.Add(genSupplier(scale(sfSupplier, sf), seed))
	cat.Add(genCustomer(scale(sfCustomer, sf), seed))
	part := genPart(scale(sfPart, sf), seed)
	cat.Add(part)
	orders, lineitem := genOrdersAndLineitem(scale(sfOrders, sf), scale(sfCustomer, sf), part.Rows(), scale(sfSupplier, sf), seed)
	cat.Add(orders)
	cat.Add(lineitem)
	return cat
}

func scale(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

func genRegion() *storage.Table {
	t := storage.NewTable("region", types.Schema{
		{Name: "r_regionkey", Kind: types.Int32},
		{Name: "r_name", Kind: types.String},
	})
	for i, name := range regions {
		t.AppendRow(int32(i), name)
	}
	return t
}

func genNation() *storage.Table {
	t := storage.NewTable("nation", types.Schema{
		{Name: "n_nationkey", Kind: types.Int32},
		{Name: "n_name", Kind: types.String},
		{Name: "n_regionkey", Kind: types.Int32},
	})
	for i, n := range nations {
		t.AppendRow(int32(i), n.name, n.region)
	}
	return t
}

func genSupplier(n int, seed uint64) *storage.Table {
	t := storage.NewTable("supplier", types.Schema{
		{Name: "s_suppkey", Kind: types.Int32},
		{Name: "s_nationkey", Kind: types.Int32},
	})
	r := newRNG(seed, "supplier")
	t.SetRows(n)
	key := t.Col("s_suppkey").I32
	nat := t.Col("s_nationkey").I32
	for i := 0; i < n; i++ {
		key[i] = int32(i + 1)
		nat[i] = int32(r.intn(len(nations)))
	}
	return t
}

func genCustomer(n int, seed uint64) *storage.Table {
	t := storage.NewTable("customer", types.Schema{
		{Name: "c_custkey", Kind: types.Int32},
		{Name: "c_nationkey", Kind: types.Int32},
		{Name: "c_mktsegment", Kind: types.String},
	})
	r := newRNG(seed, "customer")
	t.SetRows(n)
	key := t.Col("c_custkey").I32
	nat := t.Col("c_nationkey").I32
	seg := t.Col("c_mktsegment").Str
	for i := 0; i < n; i++ {
		key[i] = int32(i + 1)
		nat[i] = int32(r.intn(len(nations)))
		seg[i] = segments[r.intn(len(segments))]
	}
	return t
}

// retailPrice follows the spec formula (in dollars).
func retailPrice(partkey int32) float64 {
	pk := int(partkey)
	return float64(90000+((pk/10)%20001)+100*(pk%1000)) / 100
}

func genPart(n int, seed uint64) *storage.Table {
	t := storage.NewTable("part", types.Schema{
		{Name: "p_partkey", Kind: types.Int32},
		{Name: "p_brand", Kind: types.String},
		{Name: "p_type", Kind: types.String},
		{Name: "p_size", Kind: types.Int32},
		{Name: "p_container", Kind: types.String},
	})
	r := newRNG(seed, "part")
	t.SetRows(n)
	key := t.Col("p_partkey").I32
	brand := t.Col("p_brand").Str
	ptype := t.Col("p_type").Str
	size := t.Col("p_size").I32
	cont := t.Col("p_container").Str
	for i := 0; i < n; i++ {
		key[i] = int32(i + 1)
		brand[i] = fmt.Sprintf("Brand#%d%d", r.rangeInt(1, 5), r.rangeInt(1, 5))
		ptype[i] = typeSyl1[r.intn(6)] + " " + typeSyl2[r.intn(5)] + " " + typeSyl3[r.intn(5)]
		size[i] = int32(r.rangeInt(1, 50))
		cont[i] = containerSyl1[r.intn(5)] + " " + containerSyl2[r.intn(8)]
	}
	return t
}

// comment builds an order comment; ~1.2% contain the Q13 "special ...
// requests" fragment, mirroring dbgen's share of excluded orders.
func comment(r *rng) string {
	w := func() string { return commentWords[r.intn(len(commentWords))] }
	s := w() + " " + w() + " " + w() + " " + w()
	if r.intn(83) == 0 {
		s = w() + " special " + w() + " requests " + w()
	}
	return s
}

func genOrdersAndLineitem(nOrders, nCust, nPart, nSupp int, seed uint64) (*storage.Table, *storage.Table) {
	orders := storage.NewTable("orders", types.Schema{
		{Name: "o_orderkey", Kind: types.Int64},
		{Name: "o_custkey", Kind: types.Int32},
		{Name: "o_orderdate", Kind: types.Date},
		{Name: "o_orderpriority", Kind: types.String},
		{Name: "o_shippriority", Kind: types.Int32},
		{Name: "o_comment", Kind: types.String},
	})
	lineitem := storage.NewTable("lineitem", types.Schema{
		{Name: "l_orderkey", Kind: types.Int64},
		{Name: "l_partkey", Kind: types.Int32},
		{Name: "l_suppkey", Kind: types.Int32},
		{Name: "l_quantity", Kind: types.Float64},
		{Name: "l_extendedprice", Kind: types.Float64},
		{Name: "l_discount", Kind: types.Float64},
		{Name: "l_tax", Kind: types.Float64},
		{Name: "l_returnflag", Kind: types.String},
		{Name: "l_linestatus", Kind: types.String},
		{Name: "l_shipdate", Kind: types.Date},
		{Name: "l_commitdate", Kind: types.Date},
		{Name: "l_receiptdate", Kind: types.Date},
		{Name: "l_shipmode", Kind: types.String},
		{Name: "l_shipinstruct", Kind: types.String},
	})
	r := newRNG(seed, "orders")
	orders.SetRows(nOrders)
	oKey := orders.Col("o_orderkey").I64
	oCust := orders.Col("o_custkey").I32
	oDate := orders.Col("o_orderdate").I32
	oPrio := orders.Col("o_orderpriority").Str
	oShip := orders.Col("o_shippriority").I32
	oComm := orders.Col("o_comment").Str

	// Lineitem columns are appended (1-7 lines per order).
	lKey := lineitem.Col("l_orderkey")
	lPart := lineitem.Col("l_partkey")
	lSupp := lineitem.Col("l_suppkey")
	lQty := lineitem.Col("l_quantity")
	lPrice := lineitem.Col("l_extendedprice")
	lDisc := lineitem.Col("l_discount")
	lTax := lineitem.Col("l_tax")
	lRet := lineitem.Col("l_returnflag")
	lStat := lineitem.Col("l_linestatus")
	lShip := lineitem.Col("l_shipdate")
	lComm := lineitem.Col("l_commitdate")
	lRecv := lineitem.Col("l_receiptdate")
	lMode := lineitem.Col("l_shipmode")
	lInstr := lineitem.Col("l_shipinstruct")

	dateSpan := int(endDate - startDate)
	nLines := 0
	for i := 0; i < nOrders; i++ {
		oKey[i] = int64(i + 1)
		// As in dbgen, a third of customers place no orders: Q13's
		// outer-join distribution has a large zero bucket.
		ck := r.rangeInt(1, nCust)
		if nCust >= 3 {
			for ck%3 == 0 {
				ck = r.rangeInt(1, nCust)
			}
		}
		oCust[i] = int32(ck)
		od := startDate + int32(r.intn(dateSpan-121))
		oDate[i] = od
		oPrio[i] = priorities[r.intn(len(priorities))]
		oShip[i] = 0
		oComm[i] = comment(r)

		lines := r.rangeInt(1, 7)
		for ln := 0; ln < lines; ln++ {
			nLines++
			pk := int32(r.rangeInt(1, nPart))
			qty := float64(r.rangeInt(1, 50))
			ship := od + int32(r.rangeInt(1, 121))
			commit := od + int32(r.rangeInt(30, 90))
			recv := ship + int32(r.rangeInt(1, 30))
			rf := "N"
			if recv <= cutoff {
				if r.intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "F"
			if ship > cutoff {
				ls = "O"
			}
			appendI64(lKey, int64(i+1))
			appendI32(lPart, pk)
			appendI32(lSupp, int32(r.rangeInt(1, nSupp)))
			appendF64(lQty, qty)
			appendF64(lPrice, qty*retailPrice(pk))
			appendF64(lDisc, float64(r.rangeInt(0, 10))/100)
			appendF64(lTax, float64(r.rangeInt(0, 8))/100)
			appendStr(lRet, rf)
			appendStr(lStat, ls)
			appendI32(lShip, ship)
			appendI32(lComm, commit)
			appendI32(lRecv, recv)
			appendStr(lMode, shipmodes[r.intn(len(shipmodes))])
			appendStr(lInstr, instructs[r.intn(len(instructs))])
		}
	}
	lineitem.SetRows(nLines)
	return orders, lineitem
}

func appendI32(v *storage.Vector, x int32)   { v.I32 = append(v.I32, x) }
func appendI64(v *storage.Vector, x int64)   { v.I64 = append(v.I64, x) }
func appendF64(v *storage.Vector, x float64) { v.F64 = append(v.F64, x) }
func appendStr(v *storage.Vector, x string)  { v.Str = append(v.Str, x) }
