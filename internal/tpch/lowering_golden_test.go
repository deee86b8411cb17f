package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/interp"
	"inkfuse/internal/ir"
	"inkfuse/internal/vm"
)

// loweringGolden is one pipeline's generated code, pinned: its primitive-ID
// sequence ("(scope)" for a filter scope, which has none), the ir.Size of its
// fused function — the compile-latency model's input —, the sha256 of that
// function's C rendering and what the closure compiler made of it
// (vm.Rewrites). Variable numbering follows the order of Gen.Def calls and
// state numbering the order of AddState calls, so the hash changes when
// either does.
//
// The last row pins the interpreter's primitives instead: their number as
// size and, as rewrites, the sha256 of their vm.Rewrites strings in ID order.
type loweringGolden struct {
	plan, pipe string
	ids        string
	size       int
	csha       string
	rewrites   string
}

// lowerEveryTPCHPlan lowers the ten TPC-H plans, paper queries first.
func lowerEveryTPCHPlan(tb testing.TB) (labels []string, plans []*core.Plan) {
	tb.Helper()
	for _, q := range append(append([]string{}, Queries...), ExtendedQueries...) {
		node, err := Build(testCat, q)
		if err != nil {
			tb.Fatal(err)
		}
		plan, err := algebra.Lower(node, q)
		if err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
		labels, plans = append(labels, q), append(plans, plan)
	}
	return labels, plans
}

func loweringRows(t *testing.T) []loweringGolden {
	labels, plans := lowerEveryTPCHPlan(t)
	var rows []loweringGolden
	for i, plan := range plans {
		for _, pipe := range plan.Pipelines {
			ids := make([]string, len(pipe.Ops))
			for j, op := range pipe.Ops {
				if ids[j] = op.PrimitiveID(); ids[j] == "" {
					ids[j] = "(scope)"
				}
			}
			f, _, err := pipe.GenFused()
			if err != nil {
				t.Fatalf("%s/%s: %v", labels[i], pipe.Name, err)
			}
			prog, err := vm.Compile(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", labels[i], pipe.Name, err)
			}
			sum := sha256.Sum256([]byte(ir.EmitC(f)))
			rows = append(rows, loweringGolden{
				plan: labels[i], pipe: pipe.Name, ids: strings.Join(ids, " "),
				size: ir.Size(f), csha: hex.EncodeToString(sum[:]),
				rewrites: prog.Rewrites().String(),
			})
		}
	}
	return append(rows, primitivesRow(t))
}

// primitivesRow is the row of the interpreter's primitives.
func primitivesRow(t *testing.T) loweringGolden {
	reg, err := interp.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ids := reg.IDs()
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		p, _ := reg.Get(id)
		fmt.Fprintf(h, "%s: %s\n", id, p.Rewrites())
	}
	return loweringGolden{plan: "interp", pipe: "primitives", size: len(ids), rewrites: hex.EncodeToString(h.Sum(nil))}
}

// TestLoweringGolden pins what the compilation stack makes of every pipeline
// of the TPC-H plans: the suboperators lowering
// chose, the size the latency model charges, the exact code generated and
// what the closure compiler fused in it, and the same fusions in every
// primitive. A refactoring of the suboperator, IR or VM layers must leave
// all four alone.
// On a deliberate change, the test logs the whole table to paste back.
func TestLoweringGolden(t *testing.T) {
	got := loweringRows(t)
	ok := len(got) == len(loweringGoldens)
	for i := 0; ok && i < len(got); i++ {
		if got[i] != loweringGoldens[i] {
			t.Errorf("%s/%s:\n got  %+v\n want %+v", got[i].plan, got[i].pipe, got[i], loweringGoldens[i])
			ok = false
		}
	}
	if ok {
		return
	}
	var b strings.Builder
	for _, r := range got {
		fmt.Fprintf(&b, "\t{%q, %q, %q, %d, %q, %q},\n", r.plan, r.pipe, r.ids, r.size, r.csha, r.rewrites)
	}
	t.Errorf("%d pipelines, %d pinned; table now:\n%s", len(got), len(loweringGoldens), b.String())
}

var loweringGoldens = []loweringGolden{
	{"q1", "p0", "cmp_le_date_ck (scope) filtercopy_i32 filtercopy_i32 filtercopy_f64 filtercopy_f64 filtercopy_f64 filtercopy_f64 expr_sub_f64_kc expr_mul_f64_cc expr_add_f64_kc expr_mul_f64_cc makerow pack_key_i32 pack_key_i32 sealkey agglookup aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_count aggupdate_sum_f64", 60, "af574f88a0304b91a1068cb890e32ce60e89a2e76426347c2d1809a1f0b3644b", "17 stmts -> 8 closures, cascades [1], 1 fused key build(s), 1 grouped update run(s), 1 run-copy filter(s)"},
	{"q1", "p1", "unpack_key_i32 unpack_key_i32 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_i64 decode decode", 79, "6db3b9bbbd95d5af75654d00e7931551b8ebadcaced6b744cb2ecedc5e31982f", "22 stmts -> 22 closures"},
	{"q3", "p0", "codematch (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 14, "1802a031d7d61147c328c65e6fffcd734f4c9c2423a96a1893da4b11ca58a82d", "6 stmts -> 6 closures, cascades [1]"},
	{"q3", "p1", "cmp_lt_date_ck (scope) filtercopy_i32 filtercopy_i64 filtercopy_date filtercopy_i32 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 probecopy_date probecopy_i32 makerow pack_key_i64 sealkey pack_payload_date pack_payload_i32 joininsert", 34, "f6c7825a2c2bea568bdf19fe25c1fa737eb56d14e18eb32e9136c740fb369291", "12 stmts -> 9 closures, cascades [1], 1 fused key probe(s), 1 run-copy filter(s)"},
	{"q3", "p2", "cmp_gt_date_ck (scope) filtercopy_i64 filtercopy_f64 filtercopy_f64 makerow pack_key_i64 sealkey joinprobe_inner probecopy_i64 unpack_payload_date unpack_payload_i32 probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow pack_key_i64 pack_key_date pack_key_i32 sealkey agglookup aggupdate_sum_f64", 50, "907aec84985f191d1938908e9d609f20680df3c6562298cc82ea865ea75a8977", "17 stmts -> 9 closures, cascades [1], 1 fused key build(s), 1 fused key probe(s), 1 run-copy filter(s)"},
	{"q3", "p3", "unpack_key_i64 unpack_key_date unpack_key_i32 unpack_payload_f64", 19, "0f91ecee7b58ea8416568bd6697cfa65f3d0a009afea2ba88f49a2726506576a", "5 stmts -> 5 closures"},
	{"q4", "p0", "cmp_lt_date_cc (scope) filtercopy_i64 makerow pack_key_i64 sealkey joininsert", 16, "100954d2f38e5920c0ebbe644a36011e430cbe6505b8315d71900ab69615ec82", "6 stmts -> 6 closures, cascades [1]"},
	{"q4", "p1", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i64 filtercopy_i32 makerow pack_key_i64 sealkey joinprobe_semi probecopy_i32 agglookupfixed_i32 aggupdate_count", 31, "9c984be2578a2464045e7e3edc99c5a6fd4c200248f24d5ee7bbc174db44f6cc", "10 stmts -> 6 closures, cascades [2], 1 fused key probe(s), 1 grouped update run(s), 1 run-copy filter(s)"},
	{"q4", "p2", "unpack_key_i32 unpack_payload_i64 decode", 14, "e66d6e31b7c1eba3461d344604a549350489319f03579e575fe646020dad9a0b", "4 stmts -> 4 closures"},
	{"q5", "p0", "makerow pack_key_i32 pack_key_i32 sealkey joininsert", 11, "d1f56c89660efd836845ab3b5a87b693c7bf20db74685557e5cd9762e1e5f16e", "5 stmts -> 5 closures"},
	{"q5", "p1", "decode cmp_eq_str_ck (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 18, "3e6afa3b470b298c030f93ad400b7401a509bc934d4ee96fd2d7d1df8c0a9000", "7 stmts -> 7 closures, cascades [1]"},
	{"q5", "p2", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 probecopy_i32 makerow pack_key_i32 sealkey pack_payload_i32 joininsert", 21, "f86858a3ef464dfd691873281c6f27300ba74f8f7dbeebc08a316ef52cc6621e", "9 stmts -> 6 closures, 1 fused key probe(s)"},
	{"q5", "p3", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 probecopy_i32 unpack_payload_i32 makerow pack_key_i32 sealkey pack_payload_i32 pack_payload_i32 joininsert", 25, "cb543531adbd338e628639a9355e47906b2f67dab0c32d48480b4e9a36cb063a", "11 stmts -> 8 closures, 1 fused key probe(s)"},
	{"q5", "p4", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_i64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 unpack_payload_i32 unpack_payload_i32 makerow pack_key_i64 sealkey pack_payload_i32 pack_payload_i32 joininsert", 43, "b21b71b19c0a193b8363e496d483f224b03cf58aa7a0272a23ea5f07c4d1f02b", "16 stmts -> 12 closures, cascades [2], 1 fused key probe(s), 1 run-copy filter(s)"},
	{"q5", "p5", "makerow pack_key_i64 sealkey joinprobe_inner probecopy_i32 unpack_payload_i32 unpack_payload_i32 probecopy_f64 probecopy_f64 makerow pack_key_i32 pack_key_i32 sealkey joinprobe_inner probecopy_i32 probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc agglookupfixed_i32 aggupdate_sum_f64", 46, "21c7130d2de0244c803e5f89dc2e0d7c99195766d7ea1371af98df407f80ab8f", "15 stmts -> 8 closures, 2 fused key probe(s), 1 grouped update run(s)"},
	{"q5", "p6", "unpack_key_i32 unpack_payload_f64 decode", 14, "b21564b5ac9383a90835635a687a07eb51b8a90ad8d530b9997bd54d4da8c3e6", "4 stmts -> 4 closures"},
	{"q6", "p0", "cmp_ge_date_ck cmp_lt_date_ck logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_lt_f64_ck logic_and (scope) filtercopy_f64 filtercopy_f64 expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64", 55, "e78fe0d5e36c6e9f0c7df3584368743bfb977b731f32396ab36c83133373babb", "15 stmts -> 9 closures, cascades [5], 1 fused key build(s), 1 run-copy filter(s)"},
	{"q6", "p1", "unpack_payload_f64", 7, "201e21fad7d6c97a58187c8b21a2e136423f21fc3b97ccd4bfba978ef8a05940", "2 stmts -> 2 closures"},
	{"q13", "p0", "decode notlike (scope) filtercopy_i32 agglookupfixed_i32 aggupdate_count", 15, "82141993b1aea5429ee8e4bb71df5909820ad0c231af697c5c262dfbe88f6878", "5 stmts -> 6 closures, 1 grouped update run(s)"},
	{"q13", "p1", "unpack_key_i32 unpack_payload_i64 makerow pack_key_i32 sealkey pack_payload_i64 joininsert", 16, "a8abe4ae6fce28b78268ba9775a46a1552ed5d346c4d8024d89ff64f6214954e", "7 stmts -> 7 closures"},
	{"q13", "p2", "makerow pack_key_i32 sealkey joinprobe_leftouter unpack_payload_i64 agglookupfixed_i64 aggupdate_count", 16, "db6d7fea0fecb11335696f51d7c32f2c857a430567348f34ef554a66d5757837", "7 stmts -> 4 closures, 1 fused key probe(s), 1 grouped update run(s)"},
	{"q13", "p3", "unpack_key_i64 unpack_payload_i64", 11, "a35bc78f0f989d1da4c58c36de729708117338bc89f93d232574a85795b3f301", "3 stmts -> 3 closures"},
	{"q14", "p0", "makerow pack_key_i32 sealkey pack_payload_i32 joininsert", 11, "d01c49631d49f20197851f1b340d8c54e41adef66d14b703044eb9eb87a3fd1e", "5 stmts -> 5 closures"},
	{"q14", "p1", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_f64 filtercopy_f64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_f64 probecopy_f64 unpack_payload_i32 expr_sub_f64_kc expr_mul_f64_cc codematch case_f64_ck makerow sealkey agglookup aggupdate_sum_f64 aggupdate_sum_f64", 59, "cb377589bd13a91dca2aae6e48ccfbaa176ce9231763458a8a73fdd33c0a0ad3", "18 stmts -> 12 closures, cascades [2], 1 fused key build(s), 1 fused key probe(s), 1 run-copy filter(s)"},
	{"q14", "p2", "unpack_payload_f64 unpack_payload_f64 expr_mul_f64_kc expr_div_f64_cc", 18, "a9d3374a5ee1e082c2c350c64dd5ef9585f8fb3e3cba4c2e37da845e8f1cd1b7", "5 stmts -> 5 closures"},
	{"q19", "p0", "makerow pack_key_i32 sealkey pack_payload_i32 pack_payload_i32 pack_payload_i32 joininsert", 17, "a2c146b9e8545e9db6332809fecb7ec4ca88e3ebae05fcc7b0f51c6d858848e7", "7 stmts -> 7 closures"},
	{"q19", "p1", "codematch codematch logic_and (scope) filtercopy_i32 filtercopy_f64 filtercopy_f64 filtercopy_f64 makerow pack_key_i32 sealkey joinprobe_inner unpack_payload_i32 unpack_payload_i32 probecopy_f64 unpack_payload_i32 probecopy_f64 probecopy_f64 codematch codematch logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and codematch codematch logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and logic_or codematch codematch logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and logic_or (scope) filtercopy_f64 filtercopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64", 193, "45c320eaa758a0530001985305975372b2d98d4ff2fae73e16e122c85c232dd9", "53 stmts -> 48 closures, cascades [2], 1 fused key build(s), 1 fused key probe(s), 2 run-copy filter(s)"},
	{"q19", "p2", "unpack_payload_f64", 7, "d43f4ab37cc4a4d0f4e58f30eb4653dd20334f5dd34218b6f6fad2dc9f6b693c", "2 stmts -> 2 closures"},
	{"q10", "p0", "makerow pack_key_i32 sealkey pack_payload_i32 joininsert", 11, "72bb3f436d2fc47e6b1fce8958b09b4d09f8463a5ffe919114a9964e122cb44e", "5 stmts -> 5 closures"},
	{"q10", "p1", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 unpack_payload_i32 makerow pack_key_i32 sealkey pack_payload_i32 joininsert", 22, "f7399ceac70cbae8276bf4641ddc15f6846a6a2c0a4ae648e06b0aacee6353bd", "10 stmts -> 7 closures, 1 fused key probe(s)"},
	{"q10", "p2", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_i64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 probecopy_i32 unpack_payload_i32 makerow pack_key_i64 sealkey pack_payload_i32 pack_payload_i32 joininsert", 41, "069fbbf335d2f53f92d62a7bbf29551ea374c6fc8efc38033d785b3e05f7257f", "15 stmts -> 11 closures, cascades [2], 1 fused key probe(s), 1 run-copy filter(s)"},
	{"q10", "p3", "codematch (scope) filtercopy_i64 filtercopy_f64 filtercopy_f64 makerow pack_key_i64 sealkey joinprobe_inner unpack_payload_i32 unpack_payload_i32 probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow pack_key_i32 pack_key_i32 sealkey agglookup aggupdate_sum_f64", 46, "74ef47d5f1ac44cdc0c2e00650ddfe9f4959a7864d4f83f8c6ed3dcb3212eb4c", "16 stmts -> 9 closures, cascades [1], 1 fused key build(s), 1 fused key probe(s), 1 grouped update run(s), 1 run-copy filter(s)"},
	{"q10", "p4", "unpack_key_i32 unpack_key_i32 unpack_payload_f64 decode", 18, "90335ade1502362e32ea4efb686724cdc30bdf0741c6bf09904d335089594b51", "5 stmts -> 5 closures"},
	{"q12", "p0", "makerow pack_key_i64 sealkey pack_payload_i32 joininsert", 11, "72d6edd6d6c2a68760ca72b7247e989641f0336eca30beb889ec659580fa8f96", "5 stmts -> 5 closures"},
	{"q12", "p1", "codematch cmp_lt_date_cc logic_and cmp_lt_date_cc logic_and cmp_ge_date_ck logic_and cmp_lt_date_ck logic_and (scope) filtercopy_i64 filtercopy_i32 makerow pack_key_i64 sealkey joinprobe_inner probecopy_i32 unpack_payload_i32 codematch case_i64_kk case_i64_kk agglookupfixed_i32 aggupdate_sum_i64 aggupdate_sum_i64", 76, "8131b0365789ceea5fde69c6641fe4b9c5ef7ec00dd01cf804f6a10fb351785d", "21 stmts -> 13 closures, cascades [5], 1 fused key probe(s), 1 grouped update run(s), 1 run-copy filter(s)"},
	{"q12", "p2", "unpack_key_i32 unpack_payload_i64 unpack_payload_i64 decode", 18, "8062e71b02fca79d1e914f306e80c6292043545421f8306d5620733503117789", "5 stmts -> 5 closures"},
	{"interp", "primitives", "", 229, "", "d5a76f39ba97d727a50dd4b5d1893daefa66854a26415c6b2a777c1be72bea61"},
}
