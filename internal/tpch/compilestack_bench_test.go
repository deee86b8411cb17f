package tpch

import (
	"testing"

	"inkfuse/internal/core"
	"inkfuse/internal/interp"
	"inkfuse/internal/ir"
	"inkfuse/internal/vm"
)

// BenchmarkCompileStack times the compile path of a never-seen query, one
// layer per sub-benchmark, over every pipeline of the ten TPC-H
// plans: plan verification, fused code generation, IR verification, the IR
// size the compile-latency model charges and the closure compiler, then all
// but the size in a row. "registry" is the interpreter's
// startup build: every enumerated suboperator through BuildPrimitive,
// ir.Verify and vm.Compile. One op is one pass over all plans (or one
// registry). Run with
//
//	go test -run '^$' -bench CompileStack -benchmem ./internal/tpch/
func BenchmarkCompileStack(b *testing.B) {
	_, plans := lowerEveryTPCHPlan(b)
	var funcs []*ir.Func
	for _, p := range plans {
		for _, pipe := range p.Pipelines {
			f, _, err := pipe.GenFused()
			if err != nil {
				b.Fatal(err)
			}
			funcs = append(funcs, f)
		}
	}
	verifyPlans := func(b *testing.B) {
		for _, p := range plans {
			if err := core.VerifyPlan(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	genFused := func(b *testing.B) {
		for _, p := range plans {
			for _, pipe := range p.Pipelines {
				if _, _, err := pipe.GenFused(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	verifyIR := func(b *testing.B) {
		for _, f := range funcs {
			if err := ir.Verify(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	size := func(*testing.B) {
		for _, f := range funcs {
			irSizeSink += ir.Size(f)
		}
	}
	compile := func(b *testing.B) {
		for _, f := range funcs {
			if _, err := vm.Compile(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, stage := range []struct {
		name string
		run  func(*testing.B)
	}{
		{"verifyplan", verifyPlans},
		{"genfused", genFused},
		{"irverify", verifyIR},
		{"irsize", size},
		{"vmcompile", compile},
		{"all", func(b *testing.B) { verifyPlans(b); genFused(b); verifyIR(b); compile(b) }},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stage.run(b)
			}
		})
	}
	b.Run("registry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := interp.NewRegistry(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// irSizeSink keeps the compiler from dropping the measured ir.Size calls.
var irSizeSink int
