package xmldoc

import (
	"fmt"
	"io"
	"strings"

	"xrank/internal/text"
)

// ParseHTML parses an HTML page into a single-element document, the
// degenerate two-level case of the XRANK data model (Section 2.2: "For
// HTML documents, we define only the root to be an answer node. Thus, we
// ignore all of the HTML tags used for presentation purposes, and only
// return entire documents like in standard HTML keyword search").
//
// The parser is deliberately tolerant — real HTML is rarely well-formed
// XML. It extracts text (outside script/style), and records <a href="...">
// targets as XLink hyperlink edges so that ElemRank degenerates to
// PageRank over HTML pages.
func ParseHTML(docID uint32, name string, r io.Reader, opts *ParseOptions) (*Document, error) {
	o := DefaultParseOptions()
	if opts != nil {
		o = *opts
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmldoc: read html %s: %w", name, err)
	}
	doc := &Document{ID: docID, Name: name}
	root := &Element{Tag: "html", Kind: KindHTMLRoot, Doc: doc}
	doc.Root = root
	doc.Elements = []*Element{root}

	var (
		textParts []string
		pos       uint32
		tokBuf    []string
	)
	addText := func(s string) {
		tokBuf = tokBuf[:0]
		text.AppendTokens(&tokBuf, s)
		for _, term := range tokBuf {
			root.Tokens = append(root.Tokens, Token{Term: term, Pos: pos})
			pos++
		}
		if o.KeepText {
			if t := strings.TrimSpace(s); t != "" {
				textParts = append(textParts, t)
			}
		}
	}

	s := string(raw)
	i := 0
	for i < len(s) {
		lt := strings.IndexByte(s[i:], '<')
		if lt < 0 {
			addText(s[i:])
			break
		}
		if lt > 0 {
			addText(s[i : i+lt])
		}
		i += lt
		gt := strings.IndexByte(s[i:], '>')
		if gt < 0 {
			// Unterminated tag: treat the rest as text, tolerant mode.
			addText(s[i+1:])
			break
		}
		tag := s[i+1 : i+gt]
		i += gt + 1
		isClose := strings.HasPrefix(tag, "/")
		name, attrs := splitTag(tag)
		if isClose {
			continue
		}
		switch name {
		case "script", "style":
			// Skip to the matching close tag, case-insensitively.
			end := strings.Index(strings.ToLower(s[i:]), "</"+name)
			if end < 0 {
				i = len(s)
			} else {
				i += end
			}
		case "a":
			if href, ok := attrValue(attrs, "href"); ok && href != "" && !strings.HasPrefix(href, "#") {
				root.Refs = append(root.Refs, Ref{Kind: RefXLink, Target: href})
			}
		}
	}
	if o.KeepText {
		root.Text = strings.Join(textParts, " ")
	}
	doc.NumTokens = pos
	doc.finish()
	return doc, nil
}

// splitTag splits the inside of a tag ("a href=\"x\" class=y") into the
// lowercase tag name and the attribute string.
func splitTag(tag string) (name, attrs string) {
	tag = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(tag, "/"), "/"))
	if tag == "" {
		return "", ""
	}
	if j := strings.IndexAny(tag, " \t\r\n"); j >= 0 {
		return strings.ToLower(tag[:j]), tag[j+1:]
	}
	return strings.ToLower(tag), ""
}

// attrValue extracts the value of the named attribute from a raw attribute
// string, handling single-, double- and un-quoted forms.
func attrValue(attrs, name string) (string, bool) {
	low := strings.ToLower(attrs)
	idx := 0
	for {
		j := strings.Index(low[idx:], name)
		if j < 0 {
			return "", false
		}
		j += idx
		// Must be a word boundary followed by '='.
		if j > 0 && isWordByte(low[j-1]) {
			idx = j + len(name)
			continue
		}
		k := j + len(name)
		for k < len(attrs) && (attrs[k] == ' ' || attrs[k] == '\t') {
			k++
		}
		if k >= len(attrs) || attrs[k] != '=' {
			idx = j + len(name)
			continue
		}
		k++
		for k < len(attrs) && (attrs[k] == ' ' || attrs[k] == '\t') {
			k++
		}
		if k >= len(attrs) {
			return "", true
		}
		switch attrs[k] {
		case '"', '\'':
			q := attrs[k]
			end := strings.IndexByte(attrs[k+1:], q)
			if end < 0 {
				return attrs[k+1:], true
			}
			return attrs[k+1 : k+1+end], true
		default:
			end := strings.IndexAny(attrs[k:], " \t\r\n")
			if end < 0 {
				return attrs[k:], true
			}
			return attrs[k : k+end], true
		}
	}
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '-' || b == '_'
}
