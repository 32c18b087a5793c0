package text

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"XQL and Proximal Nodes", []string{"xql", "and", "proximal", "nodes"}},
		{"Baeza-Yates", []string{"baeza", "yates"}},
		{"don't stop", []string{"don't", "stop"}},
		{"28 July 2000", []string{"28", "july", "2000"}},
		{"a,b;c", []string{"a", "b", "c"}},
		{"trailing word!", []string{"trailing", "word"}},
		{"ünïcode Gräy", []string{"ünïcode", "gräy"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAppendTokensAccumulates(t *testing.T) {
	var dst []string
	AppendTokens(&dst, "one two")
	AppendTokens(&dst, "three")
	want := []string{"one", "two", "three"}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("AppendTokens accumulated %v, want %v", dst, want)
	}
}

func TestNormalizeTerm(t *testing.T) {
	if got := NormalizeTerm("  XQL! "); got != "xql" {
		t.Errorf("NormalizeTerm = %q", got)
	}
	if got := NormalizeTerm("!!"); got != "" {
		t.Errorf("NormalizeTerm of punctuation = %q", got)
	}
}

func TestNormalizePrefix(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ranked Key", "key"},            // completes the last keyword, case-folded
		{"XQuery", "xquery"},             // single keyword
		{"foo bar, baz", "baz"},          // punctuation separates like Tokenize
		{"Naïve", "naïve"},               // multi-byte folding matches Tokenize
		{"!!", ""},                       // no token characters
		{"", ""},                         // empty input
		{string([]byte{0xff, 0xfe}), ""}, // invalid UTF-8 never panics
		{"don't", "don't"},               // apostrophes are token characters
	}
	for _, c := range cases {
		if got := NormalizePrefix(c.in); got != c.want {
			t.Errorf("NormalizePrefix(%q) = %q, want %q", c.in, got, c.want)
		}
		// Bit-identical to index-time tokenization by construction: the
		// result must be exactly the last Tokenize token.
		toks := Tokenize(c.in)
		want := ""
		if len(toks) > 0 {
			want = toks[len(toks)-1]
		}
		if got := NormalizePrefix(c.in); got != want {
			t.Errorf("NormalizePrefix(%q) = %q, Tokenize last = %q", c.in, got, want)
		}
	}
}

func TestQuickTokenizeLowercaseNoSeparators(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r == ' ' || r == '\t' || r == ',' || r == '.' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	words := SyntheticVocab(1000)
	z := NewZipf(r, words, 1.3)
	counts := make(map[string]int)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	// Rank-0 word must dominate a mid-rank word by a wide margin.
	if counts["w0"] < 10*counts["w100"]+1 {
		t.Errorf("zipf not skewed: w0=%d w100=%d", counts["w0"], counts["w100"])
	}
}

func TestCorrelatedPlanter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := NewCorrelatedPlanter(r, 2, 2, 1.0) // always plant
	sawHigh := false
	lowSeen := map[string]int{}
	for i := 0; i < 500; i++ {
		words := p.Plant(nil)
		if len(words) == 0 {
			t.Fatalf("rate 1.0 planter planted nothing")
		}
		if len(words) == 2 {
			// High group: both members of one group, together.
			g, k := words[0], words[1]
			if g[:2] != "hi" || k[:2] != "hi" {
				t.Fatalf("two-word planting should be a high group, got %v", words)
			}
			sawHigh = true
		} else if len(words) == 1 {
			lowSeen[words[0]]++
		}
	}
	if !sawHigh {
		t.Errorf("never planted a high-correlation group")
	}
	if len(lowSeen) < 3 {
		t.Errorf("low-correlation members not spread: %v", lowSeen)
	}
}

func TestZipfEmptyVocabPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewZipf with empty vocab should panic")
		}
	}()
	NewZipf(rand.New(rand.NewSource(1)), nil, 1.2)
}
