package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/sql"
)

// loweringGolden is one pipeline's generated code, pinned: its primitive-ID
// sequence ("(scope)" for a filter scope, which has none), the ir.Size of its
// fused function — the compile-latency model's input — and the sha256 of
// that function's C rendering. Variable numbering follows the order of
// Gen.Def calls and state numbering the order of AddState calls, so the hash
// changes when either does.
type loweringGolden struct {
	plan, pipe string
	ids        string
	size       int
	csha       string
}

// lowerEveryTPCHPlan lowers the ten hand-built TPC-H plans and the eight
// written as SQL text, labelled "hand/q1", "sql/q1", ….
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
		labels, plans = append(labels, "hand/"+q), append(plans, plan)
	}
	for _, q := range Queries {
		stmt, err := sql.Compile(testCat, SQL[q])
		if err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
		plan, _, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
		if err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
		labels, plans = append(labels, "sql/"+q), append(plans, plan)
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
			sum := sha256.Sum256([]byte(ir.EmitC(f)))
			rows = append(rows, loweringGolden{
				plan: labels[i], pipe: pipe.Name, ids: strings.Join(ids, " "),
				size: ir.Size(f), csha: hex.EncodeToString(sum[:]),
			})
		}
	}
	return rows
}

// TestLoweringGolden pins what the compilation stack makes of every pipeline
// of the TPC-H plans, hand-built and from SQL: the suboperators lowering
// chose, the size the latency model charges and the exact code generated.
// A refactoring of the suboperator or IR layers must leave all three alone.
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
		fmt.Fprintf(&b, "\t{%q, %q, %q, %d, %q},\n", r.plan, r.pipe, r.ids, r.size, r.csha)
	}
	t.Errorf("%d pipelines, %d pinned; table now:\n%s", len(got), len(loweringGoldens), b.String())
}

var loweringGoldens = []loweringGolden{
	{"hand/q1", "p0", "cmp_le_date_ck (scope) filtercopy_str filtercopy_str filtercopy_f64 filtercopy_f64 filtercopy_f64 filtercopy_f64 expr_sub_f64_kc expr_mul_f64_cc expr_add_f64_kc expr_mul_f64_cc makerow packstr_key packstr_key sealkey agglookup aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_count aggupdate_sum_f64", 60, "d8f50133a785e0da6329d37eb64cd06436892a9a71b3acc94b44c6c693b44eb3"},
	{"hand/q1", "p1", "unpackstr_key unpackstr_key unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_i64", 73, "f394b8ebba29d6808b3278d081642a1d8d5dda1943de1d64a2c6a512997d28fe"},
	{"hand/q3", "p0", "cmp_eq_str_ck (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 15, "053c1e2f89dfe6bd028cbe28784dd9e43b490c98e25cdec07541bc837ace0a98"},
	{"hand/q3", "p1", "cmp_lt_date_ck (scope) filtercopy_i32 filtercopy_i64 filtercopy_date filtercopy_i32 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 probecopy_date probecopy_i32 makerow pack_key_i64 sealkey pack_payload_date pack_payload_i32 joininsert", 34, "f6c7825a2c2bea568bdf19fe25c1fa737eb56d14e18eb32e9136c740fb369291"},
	{"hand/q3", "p2", "cmp_gt_date_ck (scope) filtercopy_i64 filtercopy_f64 filtercopy_f64 makerow pack_key_i64 sealkey joinprobe_inner probecopy_i64 unpack_payload_date unpack_payload_i32 probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow pack_key_i64 pack_key_date pack_key_i32 sealkey agglookup aggupdate_sum_f64", 50, "907aec84985f191d1938908e9d609f20680df3c6562298cc82ea865ea75a8977"},
	{"hand/q3", "p3", "unpack_key_i64 unpack_key_date unpack_key_i32 unpack_payload_f64", 19, "0f91ecee7b58ea8416568bd6697cfa65f3d0a009afea2ba88f49a2726506576a"},
	{"hand/q4", "p0", "cmp_lt_date_cc (scope) filtercopy_i64 makerow pack_key_i64 sealkey joininsert", 16, "100954d2f38e5920c0ebbe644a36011e430cbe6505b8315d71900ab69615ec82"},
	{"hand/q4", "p1", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i64 filtercopy_str makerow pack_key_i64 sealkey joinprobe_semi probecopy_str makerow packstr_key sealkey agglookup aggupdate_count", 35, "e3020094bea32002c23d67c0643881acd88179d9d549eb16a581f19258013787"},
	{"hand/q4", "p2", "unpackstr_key unpack_payload_i64", 11, "2f3def998d6c30dd1687a43de053dc924d9f3410ca022116ce7838f56931c617"},
	{"hand/q5", "p0", "makerow pack_key_i32 pack_key_i32 sealkey joininsert", 11, "d1f56c89660efd836845ab3b5a87b693c7bf20db74685557e5cd9762e1e5f16e"},
	{"hand/q5", "p1", "cmp_eq_str_ck (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 15, "458b5138aa5b4bcd6c5517d482dcb703725ef139e26c72280acb399bf56c7a40"},
	{"hand/q5", "p2", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 probecopy_str makerow pack_key_i32 sealkey packstr_payload joininsert", 21, "20c3130827478740671c4fa18989f83a63743bf4106dfaf6c6579945af7befc1"},
	{"hand/q5", "p3", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 unpackstr_payload probecopy_i32 makerow pack_key_i32 sealkey pack_payload_i32 packstr_payload joininsert", 25, "d63dc3f36fbd02275285e7170a0b90a61919d9960af89599d8da05b3468052a2"},
	{"hand/q5", "p4", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_i64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 unpackstr_payload unpack_payload_i32 makerow pack_key_i64 sealkey pack_payload_i32 packstr_payload joininsert", 43, "812db955bbffbdc0e4e04f63ba228bd2d5df40fdda78b16b9c8b1cf9ab0ebd2a"},
	{"hand/q5", "p5", "makerow pack_key_i64 sealkey joinprobe_inner probecopy_i32 unpack_payload_i32 unpackstr_payload probecopy_f64 probecopy_f64 makerow pack_key_i32 pack_key_i32 sealkey joinprobe_inner probecopy_str probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow packstr_key sealkey agglookup aggupdate_sum_f64", 50, "2a66dded4ec57aabb1cea0938f868fadad5883c5a8e227c63e8cbe268be4d9c4"},
	{"hand/q5", "p6", "unpackstr_key unpack_payload_f64", 11, "f03651a8b03696a08fb5c2bb35aa16ff3f208894f7ea66fe6bb6ac5aff3341aa"},
	{"hand/q6", "p0", "cmp_ge_date_ck cmp_lt_date_ck logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_lt_f64_ck logic_and (scope) filtercopy_f64 filtercopy_f64 expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64", 55, "e78fe0d5e36c6e9f0c7df3584368743bfb977b731f32396ab36c83133373babb"},
	{"hand/q6", "p1", "unpack_payload_f64", 7, "201e21fad7d6c97a58187c8b21a2e136423f21fc3b97ccd4bfba978ef8a05940"},
	{"hand/q13", "p0", "notlike (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 14, "fbde81bc84a3be287a6b25d8cf2d6b18557d0ddfb8fc96ad7ffdf45042bdf626"},
	{"hand/q13", "p1", "makerow pack_key_i32 sealkey joinprobe_leftouter probecopy_i32 agglookupfixed_i32 aggupdate_count_if", 15, "bf94f1386c698d60d8d79f001232f5624deb6c5f0992fce916e8fe8a901ecd88"},
	{"hand/q13", "p2", "unpack_payload_i64 agglookupfixed_i64 aggupdate_count", 9, "059fb44346f41c94962b075f4c9d7f3b7b3d86889beb365c0d73b7c8fc8faf98"},
	{"hand/q13", "p3", "unpack_key_i64 unpack_payload_i64", 11, "a35bc78f0f989d1da4c58c36de729708117338bc89f93d232574a85795b3f301"},
	{"hand/q14", "p0", "makerow pack_key_i32 sealkey packstr_payload joininsert", 11, "a0c67a2217b28c4cfce4064ca462a0db54897eb36b393f2acfb6217221d860aa"},
	{"hand/q14", "p1", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_f64 filtercopy_f64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_f64 probecopy_f64 unpackstr_payload expr_sub_f64_kc expr_mul_f64_cc like case_f64_ck makerow sealkey agglookup aggupdate_sum_f64 aggupdate_sum_f64", 59, "e6f5222102b127d39d3919c3c1d8e43d6857855399ecb0ba96a3ee76ee73a2f8"},
	{"hand/q14", "p2", "unpack_payload_f64 unpack_payload_f64 expr_mul_f64_kc expr_div_f64_cc", 18, "bff34e767430c608db144f86e4d4f7e35d9039ce2d86f481b634519bfe77a10b"},
	{"hand/q19", "p0", "makerow pack_key_i32 sealkey pack_payload_i32 packstr_payload packstr_payload joininsert", 17, "86e760963609d2a131f22aa282fbff51906c1197c8b746489e81cc284ce15e4e"},
	{"hand/q19", "p1", "cmp_eq_str_ck inlist logic_and (scope) filtercopy_i32 filtercopy_f64 filtercopy_f64 filtercopy_f64 makerow pack_key_i32 sealkey joinprobe_inner unpackstr_payload unpackstr_payload probecopy_f64 unpack_payload_i32 probecopy_f64 probecopy_f64 cmp_eq_str_ck inlist logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and cmp_eq_str_ck inlist logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and logic_or cmp_eq_str_ck inlist logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and logic_or (scope) filtercopy_f64 filtercopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64", 197, "e080a5b47436aec489cee7a99a195cf09980cb44cf1b6cdaba2d51be27df2bfb"},
	{"hand/q19", "p2", "unpack_payload_f64", 7, "d43f4ab37cc4a4d0f4e58f30eb4653dd20334f5dd34218b6f6fad2dc9f6b693c"},
	{"hand/q10", "p0", "makerow pack_key_i32 sealkey packstr_payload joininsert", 11, "5d74f10df9639e957558447dd0ef6c06c31ec6c698867325ac641a213f6ae70f"},
	{"hand/q10", "p1", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 unpackstr_payload makerow pack_key_i32 sealkey packstr_payload joininsert", 22, "d1abadbd408b95f9cf4d3f20fbf9f121f97a6b5a68bf97762d24df48527e6ce4"},
	{"hand/q10", "p2", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_i64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 probecopy_i32 unpackstr_payload makerow pack_key_i64 sealkey pack_payload_i32 packstr_payload joininsert", 41, "64ab54e8fbbb414a16052dada6a5f772592e6a4f7c31fd7ab210f0ac26b312f8"},
	{"hand/q10", "p3", "cmp_eq_str_ck (scope) filtercopy_i64 filtercopy_f64 filtercopy_f64 makerow pack_key_i64 sealkey joinprobe_inner unpack_payload_i32 unpackstr_payload probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow pack_key_i32 packstr_key sealkey agglookup aggupdate_sum_f64", 47, "85b9b276e7e7ba5abac2a0808d3c0955a4c7f4453a7ffb6971ec06dd5c4b1d43"},
	{"hand/q10", "p4", "unpack_key_i32 unpackstr_key unpack_payload_f64", 15, "166001496aa08042254b1ec6e92bc89ca2fcaaf21dd65cdab7f81dd542f8752d"},
	{"hand/q12", "p0", "makerow pack_key_i64 sealkey packstr_payload joininsert", 11, "580abf9a03d5b0eaca65f10ec6798d3805524484b756c3bbfb4b8abde05746df"},
	{"hand/q12", "p1", "inlist cmp_lt_date_cc logic_and cmp_lt_date_cc logic_and cmp_ge_date_ck logic_and cmp_lt_date_ck logic_and (scope) filtercopy_i64 filtercopy_str makerow pack_key_i64 sealkey joinprobe_inner probecopy_str unpackstr_payload inlist case_i64_kk case_i64_kk makerow packstr_key sealkey agglookup aggupdate_sum_i64 aggupdate_sum_i64", 80, "b2554cd1dab8eebdb44d8778306182bf80cf24b4226a120137af6ae1a65decb1"},
	{"hand/q12", "p2", "unpackstr_key unpack_payload_i64 unpack_payload_i64", 15, "6e1a7e8f3d1e0b6ada164248ba072e8bbb390e69d82038620350ff6868229013"},
	{"sql/q1", "p0", "cmp_le_date_ck (scope) filtercopy_str filtercopy_str filtercopy_f64 filtercopy_f64 filtercopy_f64 filtercopy_f64 expr_sub_f64_kc expr_mul_f64_cc expr_sub_f64_kc expr_mul_f64_cc expr_add_f64_kc expr_mul_f64_cc makerow packstr_key packstr_key sealkey agglookup aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_sum_f64 aggupdate_count aggupdate_sum_f64", 68, "5d8fd5e28357c2a5490589469d680925e922435a70128962503d83fd1c8aca97"},
	{"sql/q1", "p1", "unpackstr_key unpackstr_key unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_f64 unpack_payload_i64 cast_i64_f64 expr_div_f64_cc unpack_payload_i64", 73, "f394b8ebba29d6808b3278d081642a1d8d5dda1943de1d64a2c6a512997d28fe"},
	{"sql/q3", "p0", "cmp_eq_str_ck (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 15, "053c1e2f89dfe6bd028cbe28784dd9e43b490c98e25cdec07541bc837ace0a98"},
	{"sql/q3", "p1", "cmp_lt_date_ck (scope) filtercopy_i32 filtercopy_i64 filtercopy_date filtercopy_i32 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 probecopy_date probecopy_i32 makerow pack_key_i64 sealkey pack_payload_date pack_payload_i32 joininsert", 34, "f6c7825a2c2bea568bdf19fe25c1fa737eb56d14e18eb32e9136c740fb369291"},
	{"sql/q3", "p2", "cmp_gt_date_ck (scope) filtercopy_i64 filtercopy_f64 filtercopy_f64 makerow pack_key_i64 sealkey joinprobe_inner probecopy_i64 unpack_payload_date unpack_payload_i32 probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow pack_key_i64 pack_key_date pack_key_i32 sealkey agglookup aggupdate_sum_f64", 50, "907aec84985f191d1938908e9d609f20680df3c6562298cc82ea865ea75a8977"},
	{"sql/q3", "p3", "unpack_key_i64 unpack_key_date unpack_key_i32 unpack_payload_f64", 19, "0f91ecee7b58ea8416568bd6697cfa65f3d0a009afea2ba88f49a2726506576a"},
	{"sql/q4", "p0", "cmp_lt_date_cc (scope) filtercopy_i64 makerow pack_key_i64 sealkey joininsert", 16, "100954d2f38e5920c0ebbe644a36011e430cbe6505b8315d71900ab69615ec82"},
	{"sql/q4", "p1", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i64 filtercopy_str makerow pack_key_i64 sealkey joinprobe_semi probecopy_str makerow packstr_key sealkey agglookup aggupdate_count", 35, "e3020094bea32002c23d67c0643881acd88179d9d549eb16a581f19258013787"},
	{"sql/q4", "p2", "unpackstr_key unpack_payload_i64", 11, "2f3def998d6c30dd1687a43de053dc924d9f3410ca022116ce7838f56931c617"},
	{"sql/q5", "p0", "makerow pack_key_i32 pack_key_i32 sealkey joininsert", 11, "d1f56c89660efd836845ab3b5a87b693c7bf20db74685557e5cd9762e1e5f16e"},
	{"sql/q5", "p1", "cmp_eq_str_ck (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 15, "458b5138aa5b4bcd6c5517d482dcb703725ef139e26c72280acb399bf56c7a40"},
	{"sql/q5", "p2", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 probecopy_str makerow pack_key_i32 sealkey packstr_payload joininsert", 21, "20c3130827478740671c4fa18989f83a63743bf4106dfaf6c6579945af7befc1"},
	{"sql/q5", "p3", "makerow pack_key_i32 sealkey joinprobe_inner probecopy_i32 probecopy_i32 unpackstr_payload makerow pack_key_i32 sealkey pack_payload_i32 packstr_payload joininsert", 25, "f8cac43a2f9fe933345b17ea5ea961fc6b7dda11eebcca5935ad2f91719c1916"},
	{"sql/q5", "p4", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_i64 makerow pack_key_i32 sealkey joinprobe_inner probecopy_i64 unpack_payload_i32 unpackstr_payload makerow pack_key_i64 sealkey pack_payload_i32 packstr_payload joininsert", 43, "7a8d4f9610100807530a230f693313888e3882866bc9db9349cf59bb0f2d88fb"},
	{"sql/q5", "p5", "makerow pack_key_i64 sealkey joinprobe_inner probecopy_i32 unpack_payload_i32 unpackstr_payload probecopy_f64 probecopy_f64 makerow pack_key_i32 pack_key_i32 sealkey joinprobe_inner probecopy_str probecopy_f64 probecopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow packstr_key sealkey agglookup aggupdate_sum_f64", 50, "2a66dded4ec57aabb1cea0938f868fadad5883c5a8e227c63e8cbe268be4d9c4"},
	{"sql/q5", "p6", "unpackstr_key unpack_payload_f64", 11, "f03651a8b03696a08fb5c2bb35aa16ff3f208894f7ea66fe6bb6ac5aff3341aa"},
	{"sql/q6", "p0", "cmp_ge_date_ck cmp_lt_date_ck logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_lt_f64_ck logic_and (scope) filtercopy_f64 filtercopy_f64 expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64", 55, "e78fe0d5e36c6e9f0c7df3584368743bfb977b731f32396ab36c83133373babb"},
	{"sql/q6", "p1", "unpack_payload_f64", 7, "201e21fad7d6c97a58187c8b21a2e136423f21fc3b97ccd4bfba978ef8a05940"},
	{"sql/q13", "p0", "notlike (scope) filtercopy_i32 makerow pack_key_i32 sealkey joininsert", 14, "fbde81bc84a3be287a6b25d8cf2d6b18557d0ddfb8fc96ad7ffdf45042bdf626"},
	{"sql/q13", "p1", "makerow pack_key_i32 sealkey joinprobe_leftouter probecopy_i32 agglookupfixed_i32 aggupdate_count_if", 15, "bf94f1386c698d60d8d79f001232f5624deb6c5f0992fce916e8fe8a901ecd88"},
	{"sql/q13", "p2", "unpack_payload_i64 agglookupfixed_i64 aggupdate_count", 9, "059fb44346f41c94962b075f4c9d7f3b7b3d86889beb365c0d73b7c8fc8faf98"},
	{"sql/q13", "p3", "unpack_key_i64 unpack_payload_i64", 11, "a35bc78f0f989d1da4c58c36de729708117338bc89f93d232574a85795b3f301"},
	{"sql/q14", "p0", "makerow pack_key_i32 sealkey packstr_payload joininsert", 11, "a0c67a2217b28c4cfce4064ca462a0db54897eb36b393f2acfb6217221d860aa"},
	{"sql/q14", "p1", "cmp_ge_date_ck cmp_lt_date_ck logic_and (scope) filtercopy_i32 filtercopy_f64 filtercopy_f64 makerow pack_key_i32 sealkey joinprobe_inner unpackstr_payload probecopy_f64 probecopy_f64 like expr_sub_f64_kc expr_mul_f64_cc case_f64_ck expr_sub_f64_kc expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64 aggupdate_sum_f64", 67, "e56c781200910846513792361ce4311b1b2a8cf3139318b55ca0031923bff825"},
	{"sql/q14", "p2", "unpack_payload_f64 unpack_payload_f64 expr_mul_f64_kc expr_div_f64_cc", 18, "a9d3374a5ee1e082c2c350c64dd5ef9585f8fb3e3cba4c2e37da845e8f1cd1b7"},
	{"sql/q19", "p0", "makerow pack_key_i32 sealkey pack_payload_i32 packstr_payload packstr_payload joininsert", 17, "86e760963609d2a131f22aa282fbff51906c1197c8b746489e81cc284ce15e4e"},
	{"sql/q19", "p1", "cmp_eq_str_ck inlist logic_and (scope) filtercopy_i32 filtercopy_f64 filtercopy_f64 filtercopy_f64 makerow pack_key_i32 sealkey joinprobe_inner unpackstr_payload unpackstr_payload probecopy_f64 unpack_payload_i32 probecopy_f64 probecopy_f64 cmp_eq_str_ck inlist logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and cmp_eq_str_ck inlist logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and logic_or cmp_eq_str_ck inlist logic_and cmp_ge_f64_ck logic_and cmp_le_f64_ck logic_and cmp_ge_i32_ck logic_and cmp_le_i32_ck logic_and logic_or (scope) filtercopy_f64 filtercopy_f64 expr_sub_f64_kc expr_mul_f64_cc makerow sealkey agglookup aggupdate_sum_f64", 197, "e080a5b47436aec489cee7a99a195cf09980cb44cf1b6cdaba2d51be27df2bfb"},
	{"sql/q19", "p2", "unpack_payload_f64", 7, "d43f4ab37cc4a4d0f4e58f30eb4653dd20334f5dd34218b6f6fad2dc9f6b693c"},
}
