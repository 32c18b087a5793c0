// Package dewey implements Dewey identifiers for XML elements as used by
// the XRANK system (Guo et al., SIGMOD 2003, Section 4.2).
//
// A Dewey ID is the path vector of sibling ordinals from the root of a
// document down to an element. The first component is the document ID, so a
// single ID space covers an entire multi-document collection. The defining
// property is that the ID of an ancestor is a prefix of the ID of every
// descendant, so ancestor/descendant relationships — and deepest common
// ancestors — can be computed from IDs alone, without touching the
// documents.
package dewey

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey identifier: component 0 is the document ID, and each further
// component is the zero-based ordinal of an element among its siblings.
// A nil or empty ID is valid and denotes "no element"; it sorts before every
// non-empty ID.
type ID []uint32

// Compare returns -1, 0, or +1 comparing a and b lexicographically by
// component, with a proper prefix ordering before any of its extensions.
// This is the document order of the corresponding elements (ancestors
// before descendants).
func Compare(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether a and b are component-wise identical.
func Equal(a, b ID) bool { return Compare(a, b) == 0 }

// CommonPrefixLen returns the number of leading components shared by a and
// b. The shared prefix a[:CommonPrefixLen(a,b)] is the Dewey ID of the
// deepest common ancestor of the two elements (or the document, when only
// the document component matches).
func CommonPrefixLen(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// IsPrefixOf reports whether a is a (not necessarily proper) prefix of b,
// i.e. whether the element identified by a is b's ancestor-or-self.
func (a ID) IsPrefixOf(b ID) bool {
	return len(a) <= len(b) && CommonPrefixLen(a, b) == len(a)
}

// Parent returns the ID of the parent element (the ID without its last
// component). Parent of an empty or single-component ID is nil. The result
// aliases a's backing array.
func (a ID) Parent() ID {
	if len(a) <= 1 {
		return nil
	}
	return a[:len(a)-1]
}

// Child returns a new ID identifying the ord-th child of a.
func (a ID) Child(ord uint32) ID {
	c := make(ID, len(a)+1)
	copy(c, a)
	c[len(a)] = ord
	return c
}

// Clone returns a copy of a with its own backing array.
func (a ID) Clone() ID {
	if a == nil {
		return nil
	}
	c := make(ID, len(a))
	copy(c, a)
	return c
}

// Doc returns the document component of the ID, or 0 for an empty ID.
func (a ID) Doc() uint32 {
	if len(a) == 0 {
		return 0
	}
	return a[0]
}

// String renders the ID in the paper's dotted notation, e.g. "5.0.3.0.0".
func (a ID) String() string {
	if len(a) == 0 {
		return "<nil>"
	}
	var b strings.Builder
	for i, c := range a {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return b.String()
}

// Parse parses the dotted notation produced by String.
func Parse(s string) (ID, error) {
	if s == "" {
		return nil, fmt.Errorf("dewey: empty ID string")
	}
	parts := strings.Split(s, ".")
	id := make(ID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dewey: bad component %q in %q: %v", p, s, err)
		}
		id[i] = uint32(v)
	}
	return id, nil
}
