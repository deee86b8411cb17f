package rt

import (
	"regexp"
	"strings"
	"testing"
)

// Native fuzz targets (the seed corpora also run as regular unit cases under
// `go test`). Run longer campaigns with e.g.
// `go test ./internal/rt -fuzz FuzzLikeMatcher -fuzztime 30s`.

func FuzzLikeMatcher(f *testing.F) {
	f.Add("%special%requests%", "the special pending requests")
	f.Add("a_c%", "abcdef")
	f.Add("", "")
	f.Add("%%%", "x")
	f.Add("_%_", "ab")
	f.Add("PROMO%", "PROMO BRUSHED TIN")
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if len(pattern) > 64 || len(s) > 256 {
			t.Skip()
		}
		// The matcher's `_` is byte-level while regexp's `.` is rune-level:
		// compare on ASCII inputs only (TPC-H data is ASCII).
		if !isASCII(pattern) || !isASCII(s) {
			t.Skip()
		}
		m := NewLikeMatcher(pattern)
		got := m.Match(s)
		want := likeRef(pattern).MatchString(s)
		if got != want {
			t.Fatalf("LIKE %q on %q: matcher=%v regexp=%v", pattern, s, got, want)
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func likeRef(pattern string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString(`^(?s)`)
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(`.*`)
		case '_':
			b.WriteString(`.`)
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

func FuzzHash64Equality(f *testing.F) {
	f.Add([]byte("abc"), []byte("abc"))
	f.Add([]byte{}, []byte{0})
	f.Add([]byte("12345678"), []byte("123456789"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ha, hb := Hash64(a), Hash64(b)
		if string(a) == string(b) && ha != hb {
			t.Fatalf("equal keys, different hashes")
		}
	})
}

func FuzzRowKeyRoundtrip(f *testing.F) {
	f.Add([]byte("key"), []byte("payload"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, key, payload []byte) {
		if len(key) > 1<<16 {
			t.Skip()
		}
		tbl := NewJoinTable(2)
		insertJoin(tbl, key, payload)
		tbl.Seal()
		rows := matchesOf(tbl, key, Hash64(key))
		if len(rows) != 1 {
			t.Fatalf("inserted key found %d times", len(rows))
		}
		row := rows[0]
		if string(RowKey(row)) != string(key) {
			t.Fatal("key roundtrip failed")
		}
		if string(row[RowPayloadOff(row):]) != string(payload) {
			t.Fatal("payload roundtrip failed")
		}
	})
}
