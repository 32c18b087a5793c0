package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"xrank/internal/storage"
)

// Per-term metadata of the naive baselines (see naive.go). Lexicons are
// loaded fully into memory at open time, the standard arrangement for
// inverted-list engines (the paper's size tables count inverted lists and
// indexes; lexicons are negligible beside them). naiveid.lex maps a term
// to the Loc of its Naive-ID list; naiverank.lex to its Naive-Rank list's
// Loc and hash table. The Dewey-family lists need none (see locOf).

const lexMagic = 0x584C4558 // "XLEX"

// lexVersion is the current lexicon format version.
const lexVersion = 1

// writeLexicon builds a lexicon file in memory — terms with fixed-format
// metadata blobs produced by enc — writes it with the atomic protocol,
// and returns its size and checksum for the meta.json commit record.
func writeLexicon(fs storage.FS, path string, terms []string, enc func(term string, buf []byte) []byte) (storage.FileSum, error) {
	out := make([]byte, 0, 12+len(terms)*32)
	out = binary.LittleEndian.AppendUint32(out, lexMagic)
	out = binary.LittleEndian.AppendUint32(out, lexVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(terms)))
	for _, t := range terms {
		if len(t) > 0xFFFF {
			return storage.FileSum{}, fmt.Errorf("index: term too long (%d bytes)", len(t))
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t)))
		out = append(out, t...)
		meta := enc(t, nil)
		if len(meta) > 0xFFFF {
			return storage.FileSum{}, fmt.Errorf("index: metadata too long")
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(meta)))
		out = append(out, meta...)
	}
	if err := storage.WriteFileAtomic(fs, path, out); err != nil {
		return storage.FileSum{}, fmt.Errorf("index: write lexicon %s: %w", path, err)
	}
	return storage.FileSum{Size: int64(len(out)), CRC32: storage.Checksum(out)}, nil
}

// readLexicon reads a lexicon file, invoking dec for each (term, meta).
// Structural damage is reported as a storage.ErrCorrupt-wrapping error
// (the whole-file checksum in meta.json is verified before this runs, so
// in practice these errors indicate a format bug, not bit rot).
func readLexicon(fs storage.FS, path string, dec func(term string, meta []byte) error) error {
	b, err := storage.DefaultFS(fs).ReadFile(path)
	if err != nil {
		return fmt.Errorf("index: open lexicon: %w", err)
	}
	r := bytes.NewReader(b)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("index: %w lexicon %s: truncated header", storage.ErrCorrupt, path)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != lexMagic {
		return fmt.Errorf("index: %w %s: not a lexicon file", storage.ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != lexVersion {
		return fmt.Errorf("index: %w %s: lexicon version %d, this build understands %d",
			storage.ErrCorrupt, path, v, lexVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	var buf []byte
	for i := uint32(0); i < n; i++ {
		var l16 [2]byte
		if _, err := io.ReadFull(r, l16[:]); err != nil {
			return fmt.Errorf("index: lexicon term %d: %w", i, err)
		}
		tl := int(binary.LittleEndian.Uint16(l16[:]))
		if cap(buf) < tl {
			buf = make([]byte, tl)
		}
		buf = buf[:tl]
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		term := string(buf)
		if _, err := io.ReadFull(r, l16[:]); err != nil {
			return err
		}
		ml := int(binary.LittleEndian.Uint16(l16[:]))
		meta := make([]byte, ml)
		if _, err := io.ReadFull(r, meta); err != nil {
			return err
		}
		if err := dec(term, meta); err != nil {
			return err
		}
	}
	return nil
}

// Fixed-size field encoders shared by the meta types.

func appendLoc(buf []byte, l Loc) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.Page))
	buf = binary.LittleEndian.AppendUint16(buf, l.Off)
	buf = binary.LittleEndian.AppendUint32(buf, l.Count)
	buf = binary.LittleEndian.AppendUint32(buf, l.Bytes)
	return buf
}

const locSize = 14

func decodeLoc(buf []byte) Loc {
	return Loc{
		Page:  storage.PageID(binary.LittleEndian.Uint32(buf[0:])),
		Off:   binary.LittleEndian.Uint16(buf[4:]),
		Count: binary.LittleEndian.Uint32(buf[6:]),
		Bytes: binary.LittleEndian.Uint32(buf[10:]),
	}
}

// readLocs reads a lexicon whose entries are single Locs.
func readLocs(fs storage.FS, path string, terms int) (map[string]Loc, error) {
	locs := make(map[string]Loc, terms)
	err := readLexicon(fs, path, func(t string, m []byte) error {
		if len(m) != locSize {
			return fmt.Errorf("index: %w lexicon entry of %d bytes, want %d", storage.ErrCorrupt, len(m), locSize)
		}
		locs[t] = decodeLoc(m)
		return nil
	})
	return locs, err
}
