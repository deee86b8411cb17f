package rt

import (
	"fmt"
	"math/rand"
	"testing"
)

// inListCorpus is the probe/member vocabulary of the property test: the empty
// string, shared prefixes, shared lengths, and strings that differ only in
// their last byte.
var inListCorpus = []string{
	"", "A", "B", "AIR", "AIS", "AIR REG", "AIR REH", "REG AIR", "MAIL", "SHIP", "RAIL",
	"TRUCK", "FOB", "SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
	"Brand#12", "Brand#13", "Brand#23", "a", "aa", "aaa", "aaaa", "aaab", "\x00", "\x00\x00",
}

// contains asks the IN kernel about one string.
func contains(s *InListState, v string) bool {
	var hit [1]bool
	s.Match(hit[:], []string{v})
	return hit[0]
}

// TestInListMatchesMapMembership pins the IN kernel to plain map membership,
// at list sizes around 7 members (where a sorted scan once gave way to a
// hash set) and beyond.
func TestInListMatchesMapMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, 7, 6, 7, 8, 21}
	for _, size := range sizes {
		for round := 0; round < 20; round++ {
			// Members are drawn with replacement (duplicates) and padded with
			// generated strings once the corpus is exhausted.
			members := make([]string, size)
			want := make(map[string]bool)
			for i := range members {
				if rng.Intn(4) == 0 {
					members[i] = fmt.Sprintf("gen-%d", rng.Intn(2*size+1))
				} else {
					members[i] = inListCorpus[rng.Intn(len(inListCorpus))]
				}
				want[members[i]] = true
			}
			s := NewInList(members...)
			probes := append([]string{}, inListCorpus...)
			probes = append(probes, members...)
			for i := 0; i < 2*size+1; i++ {
				probes = append(probes, fmt.Sprintf("gen-%d", i))
			}
			got := make([]bool, len(probes))
			s.Match(got, probes)
			for i, p := range probes {
				// (NOT IN is this kernel under a negation, so it is pinned with it.)
				if got[i] != want[p] {
					t.Fatalf("members %q: %q in-list = %v, want %v", members, p, got[i], want[p])
				}
			}
		}
	}
}

// TestInListRebind: SetMembers replaces the list, from short to long and back
// (a cached plan's parameters are rebound between executions).
func TestInListRebind(t *testing.T) {
	s := NewInList("MAIL", "SHIP")
	var long []string
	for i := 0; i < 8; i++ {
		long = append(long, fmt.Sprintf("m%02d", i))
	}
	s.SetMembers(long)
	if contains(s, "MAIL") || !contains(s, "m00") || !contains(s, long[len(long)-1]) {
		t.Fatal("rebinding to a long list kept old members or lost new ones")
	}
	s.SetMembers([]string{"RAIL"})
	if contains(s, "m00") || !contains(s, "RAIL") {
		t.Fatal("rebinding to a short list kept old members or lost new ones")
	}
}

// BenchmarkInList times the IN kernel at list sizes from 1 to 64 members. The
// column holds 2^18 values drawn at random from twice as many distinct
// strings as the list has members (TPC-H's p_container vocabulary: 40
// strings of 6 to 10 bytes, extended by suffixes), so half the probes hit at
// every size, and it is long enough that the branch predictor cannot learn
// the sequence — a loop over one 1 024-row chunk lets it, and then flatters
// every variant that branches on the data. It is the measurement the IN
// list's one representation was chosen by (EXPERIMENTS.md).
func BenchmarkInList(b *testing.B) {
	var domain []string
	for _, suffix := range []string{"", "S", "ES", "2"} {
		for _, size := range []string{"SM", "LG", "MED", "JUMBO", "WRAP"} {
			for _, kind := range []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"} {
				domain = append(domain, size+" "+kind+suffix)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(domain), func(i, j int) { domain[i], domain[j] = domain[j], domain[i] })
	dst := make([]bool, 1024)
	for _, size := range []int{1, 2, 4, 7, 8, 12, 16, 24, 32, 64} {
		vals := make([]string, 1<<18)
		for i := range vals {
			vals[i] = domain[rng.Intn(2*size)]
		}
		s := NewInList(domain[:size]...)
		b.Run(fmt.Sprintf("members=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(vals); lo += len(dst) {
					s.Match(dst, vals[lo:lo+len(dst)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
		})
	}
}
