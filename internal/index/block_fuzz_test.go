package index

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// fuzzPosts builds a small deterministic posting set for fuzz seeds.
func fuzzPosts() []Posting {
	return []Posting{
		{ID: dewey.ID{0, 1}, Rank: 0.9, Positions: []uint32{1, 5}},
		{ID: dewey.ID{0, 1, 3}, Rank: 0.5, Positions: []uint32{7}},
		{ID: dewey.ID{2, 0}, Rank: 0.25, Positions: []uint32{0, 2, 1000}},
	}
}

// decodeBlock decodes a whole block body into postings that own their
// slices.
func decodeBlock(body []byte) ([]Posting, error) {
	var dec blockDecoder
	if err := dec.init(body); err != nil {
		return nil, err
	}
	var out []Posting
	for {
		ok, err := dec.next()
		if err != nil || !ok {
			return out, err
		}
		var p Posting
		dec.at(dec.decoded()-1, &p)
		out = append(out, Posting{ID: p.ID.Clone(), Rank: p.Rank, Positions: append([]uint32(nil), p.Positions...)})
	}
}

// FuzzBlockDecode feeds arbitrary bytes to the block decoder: it must
// never panic and never loop forever — every input either decodes as a
// well-formed block or errors out — and every decoded entry must read
// back as a view of exactly the columns' contents.
func FuzzBlockDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 3, 0, 0, 0, 0})
	f.Add(encodeBlock(fuzzPosts()))
	f.Fuzz(func(t *testing.T, body []byte) {
		var dec blockDecoder
		if err := dec.init(body); err != nil {
			return
		}
		var p Posting
		for i := 0; i <= len(body)+2; i++ {
			ok, err := dec.next()
			if err != nil || !ok {
				return
			}
			dec.at(dec.decoded()-1, &p)
			if cap(p.ID) != len(p.ID) || cap(p.Positions) != len(p.Positions) {
				t.Fatalf("entry %d: view capacity not capped", i)
			}
		}
		t.Fatalf("block decoder yielded more entries than the input has bytes")
	})
}

// FuzzBlockStep checks the probes' ID-only step against the full
// decoder, for any body and any seek key. The step must never panic and
// never loop, reject only what the full decoder rejects, and wrap every
// rejection in ErrCorrupt. On every entry the full decoder decodes, the
// step must yield the same ID, and the posting it decodes on demand must
// equal the full decoder's view: ID, rank bits and positions. Stepping to
// the first ID >= key must stop at the entry decode-then-compare stops at.
func FuzzBlockStep(f *testing.F) {
	body := encodeBlock(fuzzPosts())
	for _, key := range []dewey.ID{nil, {0, 1}, {0, 1, 2}, {0, 1, 3}, {1}, {2, 0}, {9}} {
		f.Add(body, dewey.Encode(key))
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 0, 0}, []byte{0})
	f.Fuzz(func(t *testing.T, body, keyBytes []byte) {
		key, err := dewey.Decode(keyBytes)
		if err != nil {
			key = nil
		}
		var full blockDecoder
		var want []Posting
		var fullErr error
		if fullErr = full.init(body); fullErr == nil {
			for i := 0; ; i++ {
				if i > len(body)+2 {
					t.Fatalf("block decoder yielded more entries than the input has bytes")
				}
				ok, err := full.next()
				if err != nil || !ok {
					fullErr = err
					break
				}
				var p Posting
				full.at(full.decoded()-1, &p)
				want = append(want, p)
			}
		}

		var st blockDecoder
		if err := st.init(body); err != nil {
			if fullErr == nil {
				t.Fatalf("step rejected a body the decoder accepts: %v", err)
			}
			return
		}
		var p Posting
		stepped := 0
		for ; ; stepped++ {
			if stepped > len(body)+2 {
				t.Fatalf("step yielded more entries than the input has bytes")
			}
			ok, err := st.step()
			if err != nil {
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("rejection not wrapped in ErrCorrupt: %v", err)
				}
				if fullErr == nil || stepped < len(want) {
					t.Fatalf("step rejected entry %d, the decoder accepted %d entries (%v): %v",
						stepped, len(want), fullErr, err)
				}
				break
			}
			if !ok {
				break
			}
			if stepped >= len(want) {
				if fullErr == nil {
					t.Fatalf("step yielded entry %d of a block the decoder read as %d", stepped, len(want))
				}
				// The entry the decoder rejected: only its positions, which
				// the step does not read, can be at fault.
				if err := st.posting(&p); stepped == len(want) && !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("entry %d: the decoder rejected it (%v), its stepped posting decoded (%v)",
						stepped, fullErr, err)
				}
				continue
			}
			w := &want[stepped]
			if !dewey.Equal(st.id, w.ID) {
				t.Fatalf("entry %d: stepped ID %v, decoded %v", stepped, st.id, w.ID)
			}
			if err := st.posting(&p); err != nil {
				t.Fatalf("entry %d: decoding a stepped entry the decoder accepted: %v", stepped, err)
			}
			if !dewey.Equal(p.ID, w.ID) || math.Float32bits(p.Rank) != math.Float32bits(w.Rank) ||
				!slices.Equal(p.Positions, w.Positions) || p.Elem != w.Elem {
				t.Fatalf("entry %d: stepped posting %+v, decoded %+v", stepped, p, *w)
			}
			if cap(p.ID) != len(p.ID) || cap(p.Positions) != len(p.Positions) {
				t.Fatalf("entry %d: view capacity not capped", stepped)
			}
		}
		if fullErr == nil && stepped != len(want) {
			t.Fatalf("step yielded %d entries, the decoder %d", stepped, len(want))
		}
		if fullErr != nil {
			return
		}

		// Seek: both ways of reading must stop at the same entry.
		stop := len(want)
		for i := range want {
			if dewey.Compare(want[i].ID, key) >= 0 {
				stop = i
				break
			}
		}
		if err := st.init(body); err != nil {
			t.Fatal(err)
		}
		got := len(want)
		for {
			ok, err := st.step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if dewey.Compare(st.id, key) >= 0 {
				got = st.stepped - 1
				break
			}
		}
		if got != stop {
			t.Fatalf("seek %v: step stopped at entry %d, decode-then-compare at %d (of %d)", key, got, stop, len(want))
		}
	})
}

// FuzzSkipIndex feeds arbitrary bytes to the skip-index decoder in both
// ordering modes: it must never panic, and every accepted input must
// satisfy the per-mode structural invariants the cursors rely on.
func FuzzSkipIndex(f *testing.F) {
	valid, err := encodeSkipIndex([]string{"kw"}, map[string][]BlockRef{
		"kw": {{Page: 0, Off: 0, Count: 3, Bytes: 64, MaxRank: 0.9,
			FirstID: dewey.Encode(dewey.ID{0, 1}), LastID: dewey.Encode(dewey.ID{2, 0})}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, true)
	f.Add(valid, false)
	f.Add([]byte{}, true)
	f.Add([]byte{0x58, 0x53, 0x4B, 0x50}, false)
	f.Fuzz(func(t *testing.T, b []byte, ordered bool) {
		refs, err := decodeSkipIndex(b, ordered)
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("rejection not wrapped in ErrCorrupt: %v", err)
			}
			return
		}
		for term, rs := range refs {
			if len(rs) == 0 {
				t.Fatalf("term %q accepted with zero blocks", term)
			}
			for i := range rs {
				r := &rs[i]
				if r.Count == 0 || len(r.FirstID) == 0 || len(r.LastID) == 0 {
					t.Fatalf("term %q block %d accepted empty: %+v", term, i, r)
				}
				if int(r.Off)+entryLenSize+int(r.Bytes) > storage.PageSize {
					t.Fatalf("term %q block %d accepted spanning a page: %+v", term, i, r)
				}
				if ordered {
					if bytes.Compare(r.FirstID, r.LastID) > 0 {
						t.Fatalf("term %q block %d accepted out of order: %+v", term, i, r)
					}
					if i > 0 && bytes.Compare(rs[i-1].LastID, r.FirstID) > 0 {
						t.Fatalf("term %q blocks %d/%d accepted out of order", term, i-1, i)
					}
				} else if i > 0 && r.MaxRank > rs[i-1].MaxRank {
					t.Fatalf("term %q block %d accepted with rising MaxRank", term, i)
				}
			}
		}
	})
}

// TestBlockRoundTrip pins encode→decode identity for a block: every
// posting comes back bit-identical, in order, and nothing follows.
func TestBlockRoundTrip(t *testing.T) {
	posts := fuzzPosts()
	got, err := decodeBlock(encodeBlock(posts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(posts) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(posts))
	}
	for i := range posts {
		if !dewey.Equal(got[i].ID, posts[i].ID) || got[i].Rank != posts[i].Rank {
			t.Fatalf("entry %d decoded %v/%v, want %v/%v", i, got[i].ID, got[i].Rank, posts[i].ID, posts[i].Rank)
		}
		if !slices.Equal(got[i].Positions, posts[i].Positions) {
			t.Fatalf("entry %d posList %v, want %v", i, got[i].Positions, posts[i].Positions)
		}
	}
}
