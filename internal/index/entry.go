// Package index implements XRANK's inverted-list index family (Guo et
// al., SIGMOD 2003, Section 4): the Dewey Inverted List (DIL), the Ranked
// Dewey Inverted List (RDIL) and the Hybrid Dewey Inverted List (HDIL),
// all disk-resident over the storage substrate, plus the paper's naive
// element inverted lists (Naive-ID, Naive-Rank) as a standalone baseline
// index that only the experiment harness builds (naive.go).
//
// On-disk inverted lists are streams of entries packed into fixed-size
// pages (entries never span pages), so sequential scans touch consecutive
// pages — the access pattern that makes DIL cheap — while in-memory skip
// indexes over the Dewey-family lists' blocks (block.go) provide the
// random entry points that RDIL and HDIL rely on.
package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"xrank/internal/dewey"
)

// Posting is one decoded inverted-list entry: a keyword's occurrences in
// one element that directly contains it, with the element's ElemRank
// (Section 4.2.1, Figure 4).
type Posting struct {
	// ID is the element's Dewey ID (Dewey-family indexes). nil for naive
	// entries.
	ID dewey.ID
	// Elem is the element's collection-global index: the key of naive
	// entries, and set on Dewey postings at build time only.
	Elem int32
	// Rank is the element's ElemRank.
	Rank float32
	// Positions is the posList: document-global token offsets of the
	// keyword in the element, ascending.
	Positions []uint32
}

// Entry wire formats. Every entry starts with a uint16 total length of the
// body (everything after the length field), so scans can skip entries
// without decoding them. A length of padEntry marks page padding.
//
//	naive entry body:  uvarint elemID, f32 rank, uvarint nPos, uvarint pos deltas
//	block body:        see block.go; its entries are AppendDeweyEntryCompressed's
const (
	entryLenSize = 2
	padEntry     = 0xFFFF
)

// MaxPositionsDefault caps the posList length stored per entry. Extremely
// long posLists (a stopword in a huge HTML page) would otherwise overflow
// a page; the cap preserves the first occurrences, which is what window
// proximity needs most. The true total is not needed by any algorithm in
// the paper.
const MaxPositionsDefault = 1024

// AppendDeweyEntryCompressed appends a prefix-compressed Dewey entry: the
// ID is stored as (number of leading components shared with prev, encoded
// suffix). It is the entry encoding inside every Dewey-family block
// (block.go): the chain resets at the start of each block (pass prev =
// nil), keeping every block self-decodable. An extension beyond the paper
// (its Section 4.2.1 space argument, taken one step further).
//
// Body layout: u8 lcp, uvarint suffixLen, suffix, f32 rank, posList.
func AppendDeweyEntryCompressed(buf []byte, prev, id dewey.ID, rank float32, positions []uint32) []byte {
	lcp := dewey.CommonPrefixLen(prev, id)
	if lcp > 255 {
		lcp = 255
	}
	start := len(buf)
	buf = append(buf, 0, 0) // total length patch slot
	buf = append(buf, byte(lcp))
	suffix := id[lcp:]
	buf = binary.AppendUvarint(buf, uint64(dewey.EncodedLen(suffix)))
	buf = dewey.Append(buf, suffix)
	buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(rank))
	buf = appendPositions(buf, positions)
	binary.LittleEndian.PutUint16(buf[start:], uint16(len(buf)-start-entryLenSize))
	return buf
}

func appendPositions(buf []byte, pos []uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pos)))
	prev := uint32(0)
	for i, p := range pos {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(p))
		} else {
			buf = binary.AppendUvarint(buf, uint64(p-prev))
		}
		prev = p
	}
	return buf
}

func decodePositions(body []byte, p *Posting) error {
	nPos, n := binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("index: posList count corrupt")
	}
	body = body[n:]
	if cap(p.Positions) < int(nPos) {
		p.Positions = make([]uint32, 0, nPos)
	}
	p.Positions = p.Positions[:0]
	prev := uint64(0)
	for i := uint64(0); i < nPos; i++ {
		d, n := binary.Uvarint(body)
		if n <= 0 {
			return fmt.Errorf("index: posList truncated at %d/%d", i, nPos)
		}
		body = body[n:]
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		p.Positions = append(p.Positions, uint32(prev))
	}
	return nil
}
