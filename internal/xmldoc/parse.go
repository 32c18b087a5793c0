package xmldoc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xrank/internal/text"
)

// ParseOptions configure how documents are turned into the XRANK data
// model.
type ParseOptions struct {
	// IndexTagNames controls whether element tag names and attribute names
	// are indexed as values, per Section 2.1 ("we treat element tag names
	// and attribute names also as values"). Default true.
	IndexTagNames bool
	// KeepText retains the raw character data of each element for snippet
	// generation. Default true; large batch index builds can turn it off.
	KeepText bool
	// MaxDepth bounds element nesting to defend against pathological input.
	// Zero means the default of 512.
	MaxDepth int
}

// DefaultParseOptions returns the options used when nil is passed to the
// parse functions.
func DefaultParseOptions() ParseOptions {
	return ParseOptions{IndexTagNames: true, KeepText: true, MaxDepth: 512}
}

// Attribute-name conventions for hyperlinks, following the paper's Figure 1
// (<cite ref="2">, <cite xlink="/paper/xmlql/">). Attributes in linkAttrs
// become hyperlink edges rather than value sub-elements; "id" anchors the
// element for IDREF targets.
var linkAttrs = map[string]RefKind{
	"ref":   RefIDREF,
	"idref": RefIDREF,
	"xlink": RefXLink,
	"href":  RefXLink,
}

// multiLinkAttrs hold whitespace-separated lists of targets, matching the
// XML IDREFS attribute type.
var multiLinkAttrs = map[string]RefKind{
	"refs":   RefIDREF,
	"idrefs": RefIDREF,
	"xlinks": RefXLink,
}

// ParseXML parses one XML document into the data model. docID becomes the
// first Dewey component; name is the collection-unique document name used
// to resolve XLink targets. A nil opts uses DefaultParseOptions.
func ParseXML(docID uint32, name string, r io.Reader, opts *ParseOptions) (*Document, error) {
	o := DefaultParseOptions()
	if opts != nil {
		o = *opts
		if o.MaxDepth == 0 {
			o.MaxDepth = 512
		}
	}
	doc := &Document{ID: docID, Name: name}
	dec := xml.NewDecoder(r)
	dec.Strict = true

	var (
		stack  []*Element
		tokBuf []string
	)
	pos := uint32(0)

	addTokens := func(e *Element, s string) {
		tokBuf = tokBuf[:0]
		text.AppendTokens(&tokBuf, s)
		for _, term := range tokBuf {
			e.Tokens = append(e.Tokens, Token{Term: term, Pos: pos})
			pos++
		}
	}

	newElement := func(tag string, kind Kind, parent *Element) *Element {
		e := &Element{Tag: tag, Kind: kind, Parent: parent, Doc: doc, Index: int32(len(doc.Elements))}
		if parent != nil {
			e.Ord = uint32(len(parent.Children))
			parent.Children = append(parent.Children, e)
		}
		doc.Elements = append(doc.Elements, e)
		return e
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) >= o.MaxDepth {
				return nil, fmt.Errorf("xmldoc: parse %s: nesting exceeds %d", name, o.MaxDepth)
			}
			var parent *Element
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			} else if doc.Root != nil {
				return nil, fmt.Errorf("xmldoc: parse %s: multiple root elements", name)
			}
			e := newElement(t.Name.Local, KindElement, parent)
			if parent == nil {
				doc.Root = e
			}
			if o.IndexTagNames {
				addTokens(e, t.Name.Local)
			}
			for _, a := range t.Attr {
				aname := strings.ToLower(a.Name.Local)
				if a.Name.Space == "xmlns" || aname == "xmlns" {
					continue
				}
				if aname == "id" {
					e.XMLID = a.Value
					continue
				}
				if kind, ok := linkAttrs[aname]; ok {
					e.Refs = append(e.Refs, Ref{Kind: kind, Target: a.Value})
					continue
				}
				if kind, ok := multiLinkAttrs[aname]; ok {
					for _, target := range strings.Fields(a.Value) {
						e.Refs = append(e.Refs, Ref{Kind: kind, Target: target})
					}
					continue
				}
				// Attribute as sub-element (Section 2.1).
				ae := newElement(a.Name.Local, KindAttr, e)
				if o.IndexTagNames {
					addTokens(ae, a.Name.Local)
				}
				addTokens(ae, a.Value)
				if o.KeepText {
					ae.Text = a.Value
				}
			}
			stack = append(stack, e)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace outside the root
			}
			e := stack[len(stack)-1]
			s := string(t)
			addTokens(e, s)
			if o.KeepText {
				if trimmed := strings.TrimSpace(s); trimmed != "" {
					if e.Text != "" {
						e.Text += " "
					}
					e.Text += trimmed
				}
			}
		default:
			// Comments, directives and processing instructions carry no
			// values in the data model.
		}
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("xmldoc: parse %s: no root element", name)
	}
	doc.NumTokens = pos
	doc.finish()
	return doc, nil
}
