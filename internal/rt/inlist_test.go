package rt

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// TestInListMatchesMapMembership pins the IN kernel, on both representations,
// to plain map membership.
func TestInListMatchesMapMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, 7, inListSmallMax - 1, inListSmallMax, inListSmallMax + 1, 3 * inListSmallMax}
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
			if long := s.set != nil; long != (len(want) > inListSmallMax) {
				t.Fatalf("%d distinct members: hashed=%v, threshold %d", len(want), long, inListSmallMax)
			}
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

// TestInListRebind: SetMembers replaces the list, across the threshold in both
// directions (a cached plan's parameters are rebound between executions).
func TestInListRebind(t *testing.T) {
	s := NewInList("MAIL", "SHIP")
	var long []string
	for i := 0; i <= inListSmallMax; i++ {
		long = append(long, fmt.Sprintf("m%02d", i))
	}
	s.SetMembers(long)
	if contains(s, "MAIL") || !contains(s, "m00") || !contains(s, long[len(long)-1]) {
		t.Fatal("rebinding to a long list kept old members or lost new ones")
	}
	s.SetMembers([]string{"RAIL"})
	if contains(s, "m00") || !contains(s, "RAIL") || s.set != nil {
		t.Fatal("rebinding to a short list kept the hash set")
	}
}

// BenchmarkInList times both representations at every list size around the
// threshold. The column holds 2^18 values drawn at random from twice as many
// distinct strings as the list has members (TPC-H's p_container vocabulary:
// 40 strings of 6 to 10 bytes, extended by suffixes), so half the probes hit
// at every size, and it is long enough that the branch predictor cannot learn
// the sequence — a loop over one 1 024-row chunk lets it, and then flatters
// every variant that branches on the data. It is the measurement
// inListSmallMax is chosen from.
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
		members := domain[:size]
		vals := make([]string, 1<<18)
		for i := range vals {
			vals[i] = domain[rng.Intn(2*size)]
		}
		sorted := NewInList(members[:min(size, inListSmallMax)]...)
		for _, m := range members[min(size, inListSmallMax):] {
			// Past the threshold the sorted form has to be put together by hand.
			at, _ := slices.BinarySearchFunc(sorted.small, m, func(a, b string) int {
				return cmp.Or(cmp.Compare(inListKey(a), inListKey(b)), strings.Compare(a, b))
			})
			sorted.small = slices.Insert(sorted.small, at, m)
			sorted.keys = slices.Insert(sorted.keys, at, inListKey(m))
		}
		hashed := &InListState{set: make(map[string]bool)}
		for _, m := range members {
			hashed.set[m] = true
		}
		for _, rep := range []struct {
			name string
			s    *InListState
		}{{"sorted", sorted}, {"map", hashed}} {
			b.Run(fmt.Sprintf("%s/members=%d", rep.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(vals); lo += len(dst) {
						rep.s.Match(dst, vals[lo:lo+len(dst)])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
			})
		}
	}
}
