package dewey

import (
	"testing"
)

func id(cs ...uint32) ID { return ID(cs) }

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{nil, nil, 0},
		{nil, id(0), -1},
		{id(0), nil, 1},
		{id(1, 2, 3), id(1, 2, 3), 0},
		{id(1, 2), id(1, 2, 0), -1}, // ancestor before descendant
		{id(1, 2, 0), id(1, 2), 1},
		{id(5, 0, 3, 0, 0), id(5, 0, 3, 0, 1), -1}, // paper's Figure 4 IDs
		{id(5, 0, 3, 0, 1), id(6, 0, 3, 8, 3), -1},
		{id(2), id(1, 5), 1},
		{id(1, 5), id(2), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonPrefix(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{id(5, 0, 3, 0, 0), id(5, 0, 3, 0, 1), 4},
		{id(5, 0, 3, 0, 1), id(6, 0, 3, 8, 3), 0},
		{id(1, 2, 3), id(1, 2, 3), 3},
		{id(1, 2, 3), id(1, 2), 2},
		{nil, id(1), 0},
	}
	for _, c := range cases {
		if got := CommonPrefixLen(c.a, c.b); got != c.want {
			t.Errorf("CommonPrefixLen(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPrefixAncestor(t *testing.T) {
	a := id(5, 0, 3)
	d := id(5, 0, 3, 0, 1)
	if !a.IsPrefixOf(d) {
		t.Errorf("%v should be a prefix of %v", a, d)
	}
	if !a.IsPrefixOf(a) {
		t.Errorf("ID should be prefix of itself")
	}
	if d.IsPrefixOf(a) {
		t.Errorf("descendant is not prefix of ancestor")
	}
	if id(5, 1).IsPrefixOf(d) {
		t.Errorf("sibling branch is not a prefix")
	}
}

func TestParentChild(t *testing.T) {
	a := id(5, 0, 3)
	if got := a.Parent(); !Equal(got, id(5, 0)) {
		t.Errorf("Parent(%v) = %v", a, got)
	}
	if got := id(5).Parent(); got != nil {
		t.Errorf("Parent of single component should be nil, got %v", got)
	}
	if got := ID(nil).Parent(); got != nil {
		t.Errorf("Parent of nil should be nil, got %v", got)
	}
	c := a.Child(7)
	if !Equal(c, id(5, 0, 3, 7)) {
		t.Errorf("Child = %v", c)
	}
	// Child must not alias a: mutating c must leave a intact.
	c[0] = 99
	if a[0] != 5 {
		t.Errorf("Child aliased parent storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := id(1, 2, 3)
	b := a.Clone()
	b[1] = 99
	if a[1] != 2 {
		t.Errorf("Clone shares storage")
	}
	if ID(nil).Clone() != nil {
		t.Errorf("Clone(nil) should be nil")
	}
}

func TestStringParse(t *testing.T) {
	for _, s := range []string{"5.0.3.0.0", "0", "1.2", "4294967295.0"} {
		parsed, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if parsed.String() != s {
			t.Errorf("round trip %q -> %v -> %q", s, parsed, parsed.String())
		}
	}
	for _, s := range []string{"", "1..2", "a.b", "1.-2", "4294967296"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
	if got := ID(nil).String(); got != "<nil>" {
		t.Errorf("nil String = %q", got)
	}
}

func TestDocDepth(t *testing.T) {
	a := id(7, 0, 2)
	if a.Doc() != 7 {
		t.Errorf("Doc = %d", a.Doc())
	}
	if ID(nil).Doc() != 0 {
		t.Errorf("nil Doc should be 0")
	}
}
