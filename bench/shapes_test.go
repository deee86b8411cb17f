package main

import (
	"math/rand"
	"testing"

	"inkfuse/internal/core"
	"inkfuse/internal/sql"
	"inkfuse/internal/tpch"
)

// fingerprintOf compiles draws texts of one shape and requires that they all
// share one fingerprint.
func fingerprintOf(t *testing.T, s shape, r *rand.Rand, draws int) core.Fingerprint {
	t.Helper()
	var fp core.Fingerprint
	for d := 0; d < draws; d++ {
		text := s.sql(r)
		stmt, err := sql.Compile(testCatalog, text)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, text)
		}
		if d > 0 && stmt.Fingerprint != fp {
			t.Fatalf("literal redraw changed the fingerprint of a %s shape:\n%s", s.family, text)
		}
		fp = stmt.Fingerprint
	}
	return fp
}

var testCatalog = tpch.Generate(0.01, 42)

func TestAdhocShapesDistinct(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		shapes := adhocShapes(seed, adhocShapeCount)
		if len(shapes) < 512 {
			t.Fatalf("seed %d: %d shapes, want at least 512", seed, len(shapes))
		}
		r := rand.New(rand.NewSource(seed))
		seen := map[core.Fingerprint]bool{}
		families := map[string]bool{}
		for _, s := range shapes {
			fp := fingerprintOf(t, s, r, 3)
			if seen[fp] {
				t.Fatalf("seed %d: two shapes share fingerprint %s:\n%s", seed, fp.Hex(), s.sql(r))
			}
			seen[fp] = true
			families[s.family] = true
		}
		if len(families) < 4 {
			t.Fatalf("seed %d: %d template families, want at least 4", seed, len(families))
		}
	}
}

func TestTPCHShapesKeepOneFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, text := range tpch.SQL {
		canonical, err := sql.Compile(testCatalog, text)
		if err != nil {
			t.Fatal(err)
		}
		if fp := fingerprintOf(t, tpchShapes(name)[0], r, 20); fp != canonical.Fingerprint {
			t.Errorf("%s: the template's plan shape differs from tpch.SQL's", name)
		}
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a := newStream(w, w.shapes(5), 5, 1)
		b := newStream(w, w.shapes(5), 5, 1)
		other := newStream(w, w.shapes(6), 6, 1)
		differs := false
		for i := 0; i < 600; i++ {
			ia, ta := a.next()
			ib, tb := b.next()
			if ia != ib || ta != tb {
				t.Fatalf("%s: request %d differs between two streams of one seed", w.name, i)
			}
			if _, to := other.next(); to != ta {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 5 and 6 give the same requests", w.name)
		}
	}
}
