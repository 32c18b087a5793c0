package index

import (
	"encoding/binary"
	"fmt"

	"xrank/internal/storage"
)

// Static disk-resident hash tables over element IDs, one per term: the
// random-lookup index of Naive-Rank (Section 5.1: "Naive-Rank has a hash
// index built on the ID field for random equality lookups"). Each slot
// maps an element ID to the location of that element's entry in the
// term's rank-ordered naive list.
//
// Layout: a table of nSlots 12-byte slots with linear probing at a load
// factor <= 2/3. Small tables are packed into shared pages; large tables
// are page-aligned, slotsPerPage slots per page, so a slot never spans
// pages.

const (
	hashSlotSize   = 12
	slotsPerPage   = storage.PageSize / hashSlotSize
	hashAlignedOff = 0xFFFF // HashMeta.Off sentinel for page-aligned tables
	slotOccupied   = 1
)

// HashMeta locates a term's static hash table over element IDs.
type HashMeta struct {
	Page   storage.PageID
	Off    uint16 // nonzero only for tables packed into a shared page
	NSlots uint32
}

type hashEntry struct {
	elem int32
	page storage.PageID
	off  uint16
}

func hashSlotFor(elem int32, nSlots uint32) uint32 {
	return uint32(uint64(uint32(elem))*2654435761%uint64(nSlots)) % nSlots
}

func putSlot(tab []byte, s uint32, e hashEntry) {
	p := s * hashSlotSize
	binary.LittleEndian.PutUint32(tab[p:], uint32(e.elem))
	binary.LittleEndian.PutUint32(tab[p+4:], uint32(e.page))
	binary.LittleEndian.PutUint16(tab[p+8:], e.off)
	binary.LittleEndian.PutUint16(tab[p+10:], slotOccupied)
}

// hashBuilder packs hash tables into a PageFile.
type hashBuilder struct {
	pf   *storage.PageFile
	page []byte
	used int
}

func newHashBuilder(pf *storage.PageFile) *hashBuilder {
	return &hashBuilder{pf: pf, page: make([]byte, storage.PageSize)}
}

// build writes a table for the given entries and returns its metadata.
func (hb *hashBuilder) build(entries []hashEntry) (HashMeta, error) {
	n := uint32(len(entries))
	nSlots := n + n/2 + 2 // load factor <= 2/3
	tab := make([]byte, nSlots*hashSlotSize)
	for _, e := range entries {
		s := hashSlotFor(e.elem, nSlots)
		for binary.LittleEndian.Uint16(tab[s*hashSlotSize+10:]) == slotOccupied {
			s = (s + 1) % nSlots
		}
		putSlot(tab, s, e)
	}
	if len(tab) <= storage.PageSize-hb.used {
		// Pack into the shared page.
		meta := HashMeta{Page: storage.PageID(hb.pf.NumPages()), Off: uint16(hb.used), NSlots: nSlots}
		copy(hb.page[hb.used:], tab)
		hb.used += len(tab)
		return meta, nil
	}
	if len(tab) <= storage.PageSize {
		// Fits a page but not the current one: flush and retry cleanly.
		if err := hb.flushShared(); err != nil {
			return HashMeta{}, err
		}
		return hb.build(entries)
	}
	// Page-aligned multi-page table.
	if err := hb.flushShared(); err != nil {
		return HashMeta{}, err
	}
	meta := HashMeta{Page: storage.PageID(hb.pf.NumPages()), Off: hashAlignedOff, NSlots: nSlots}
	pageBuf := make([]byte, storage.PageSize)
	for s := uint32(0); s < nSlots; s += slotsPerPage {
		end := s + slotsPerPage
		if end > nSlots {
			end = nSlots
		}
		for i := range pageBuf {
			pageBuf[i] = 0
		}
		copy(pageBuf, tab[s*hashSlotSize:end*hashSlotSize])
		if _, err := hb.pf.AppendPage(pageBuf); err != nil {
			return HashMeta{}, err
		}
	}
	return meta, nil
}

func (hb *hashBuilder) flushShared() error {
	if hb.used == 0 {
		return nil
	}
	for i := hb.used; i < storage.PageSize; i++ {
		hb.page[i] = 0
	}
	if _, err := hb.pf.AppendPage(hb.page); err != nil {
		return err
	}
	hb.used = 0
	return nil
}

// flush writes out any pending shared page.
func (hb *hashBuilder) flush() error { return hb.flushShared() }

// hashLookup probes the table for elem, returning the location of its
// entry in the postings file. Slot-page fetches are attributed to ec
// (nil for no per-query accounting).
func hashLookup(ec *storage.ExecContext, pool *storage.BufferPool, meta HashMeta, elem int32) (page storage.PageID, off uint16, ok bool, err error) {
	if meta.NSlots == 0 {
		return 0, 0, false, nil
	}
	s := hashSlotFor(elem, meta.NSlots)
	for probes := uint32(0); probes < meta.NSlots; probes++ {
		var slotPage storage.PageID
		var slotOff uint32
		if meta.Off == hashAlignedOff {
			slotPage = meta.Page + storage.PageID(s/slotsPerPage)
			slotOff = (s % slotsPerPage) * hashSlotSize
		} else {
			slotPage = meta.Page
			slotOff = uint32(meta.Off) + s*hashSlotSize
		}
		fr, err := pool.GetExec(ec, slotPage)
		if err != nil {
			return 0, 0, false, err
		}
		slot := fr.Data[slotOff : slotOff+hashSlotSize]
		occupied := binary.LittleEndian.Uint16(slot[10:]) == slotOccupied
		id := int32(binary.LittleEndian.Uint32(slot))
		ep := storage.PageID(binary.LittleEndian.Uint32(slot[4:]))
		eo := binary.LittleEndian.Uint16(slot[8:])
		fr.Release()
		if !occupied {
			return 0, 0, false, nil
		}
		if id == elem {
			return ep, eo, true, nil
		}
		s = (s + 1) % meta.NSlots
	}
	return 0, 0, false, fmt.Errorf("index: hash table full cycle without empty slot")
}
