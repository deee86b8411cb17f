package inkfuse

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
)

// TestGeneratedCCompiles hands the C the compilation stack renders to a C
// compiler: the checked-in interpreter and the fused pipelines of every
// TPC-H plan, whole and staged for ROF, each against the runtime interface
// in artifacts/inkfuse.h. A
// hook the emitter prints but the header does not declare, or a value of the
// wrong C type, fails the compile. Each plan is its own file, since every
// plan names its functions pipeline_p0, pipeline_p1, …
func TestGeneratedCCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	header, err := filepath.Abs("artifacts/inkfuse.h")
	if err != nil {
		t.Fatal(err)
	}
	interp, err := os.ReadFile("artifacts/interpreter.c")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string]string{"interpreter.c": string(interp)}
	cat := GenerateTPCH(0.001, 7)
	for _, q := range TPCHQueries() {
		node, err := TPCHQuery(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		src, err := GeneratedC(node, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		files[q+".c"] = src + rofC(t, node, q)
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(cc, "-fsyntax-only", "-std=c11",
			"-Werror=implicit-function-declaration",
			"-Werror=incompatible-pointer-types",
			"-Werror=int-conversion",
			"-include", header, path).CombinedOutput()
		if err != nil {
			t.Errorf("%s does not compile against artifacts/inkfuse.h: %v\n%s", name, err, out)
		}
	}
}

// rofC renders each probe pipeline of a plan the way the ROF backend stages
// it, with a prefetch before every probe, so that the scalar prefetch hook is
// compiled too.
func rofC(t *testing.T, node Node, name string) string {
	plan, err := Lower(node, name)
	if err != nil {
		t.Fatal(err)
	}
	src := ""
	for _, pipe := range plan.Pipelines {
		var ops []core.SubOp
		for _, op := range pipe.Ops {
			if p, ok := op.(*core.JoinProbe); ok {
				ops = append(ops, &core.Prefetch{Row: p.Row, State: p.State})
			}
			ops = append(ops, op)
		}
		if len(ops) == len(pipe.Ops) {
			continue
		}
		fn, _, err := core.GenStep("rof_"+pipe.Name, pipe.Source.SourceIUs(), ops, pipe.Result)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src += ir.EmitC(fn) + "\n"
	}
	return src
}
