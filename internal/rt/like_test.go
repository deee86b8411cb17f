package rt

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestLikeMatcherCases(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abcd", false},
		{"abc", "ab", false},
		{"abc%", "abc", true},
		{"abc%", "abcdef", true},
		{"abc%", "xabc", false},
		{"%abc", "abc", true},
		{"%abc", "xyzabc", true},
		{"%abc", "abcx", false},
		{"%abc%", "xxabcxx", true},
		{"%abc%", "ab", false},
		{"a%c", "abbbc", true},
		{"a%c", "ac", true},
		{"a%c", "acx", false},
		{"%special%requests%", "the special deposit requests sleep", true},
		{"%special%requests%", "requests special", false}, // wrong order
		{"PROMO%", "PROMO BRUSHED TIN", true},
		{"PROMO%", "STANDARD PROMO TIN", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"a_c", "abbc", false},
		{"_", "x", true},
		{"_", "", false},
		{"_", "xy", false},
		{"%", "", true},
		{"%", "anything", true},
		{"%%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a%b%a", "aba", true},
		{"a%b%a", "aXbXa", true},
		{"a%b%a", "ab", false},
		{"%a%a%", "aa", true},
		{"%a%a%", "a", false},
	}
	for _, c := range cases {
		m := NewLikeMatcher(c.pattern)
		if got := m.Match(c.s); got != c.want {
			t.Errorf("LIKE %q on %q: got %v want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// likeToRegexp builds the reference matcher for the property test.
func likeToRegexp(pattern string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString("(?s).*")
		case '_':
			b.WriteString("(?s).")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

func TestLikeMatcherAgainstRegexp(t *testing.T) {
	alphabet := []byte("ab%_")
	f := func(pat8, s8 []uint8) bool {
		var pb, sb strings.Builder
		for _, x := range pat8 {
			pb.WriteByte(alphabet[int(x)%len(alphabet)])
		}
		for _, x := range s8 {
			// Subject strings contain only literals.
			sb.WriteByte(alphabet[int(x)%2])
		}
		pat, s := pb.String(), sb.String()
		m := NewLikeMatcher(pat)
		return m.Match(s) == likeToRegexp(pat).MatchString(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLikePatternAccessor(t *testing.T) {
	if NewLikeMatcher("a%b").Pattern() != "a%b" {
		t.Fatal("pattern accessor")
	}
}

func TestInListState(t *testing.T) {
	s := NewInList("AIR", "AIR REG")
	if !contains(s, "AIR") || !contains(s, "AIR REG") || contains(s, "TRUCK") {
		t.Fatal("in-list membership wrong")
	}
}
