package xrank

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzOpenCorrupt mutates one persisted file per input — a bit flip at
// an arbitrary offset or a truncation to an arbitrary length — and
// asserts OpenEngine (which verifies every artifact, including the
// sharded index underneath) never panics and never opens silently
// wrong: either it reports an error, or — for mutations outside any
// checksummed payload, e.g. whitespace inside a manifest envelope —
// the opened engine is observably identical to the pristine one. The
// pristine bytes are restored after each case so the shared directory
// stays valid. The walked file set includes the per-term skip indexes
// (dil.skip, rdil.skip) — a corrupted skip index must be rejected at
// open, never silently steer queries into the wrong blocks — and, since
// the directory has the shape older engines wrote, the retired files
// open ignores: the naive baselines' five, the separate HDIL rank
// prefix (hdil.rank, hdilrank.skip) and lexicons (dil.lex, rdil.lex,
// hdil.lex), and the ranks blob (ranks-000000.bin) of an engine that
// stored ElemRank, whose segments.json records no rank CRC.
func FuzzOpenCorrupt(f *testing.F) {
	dir := f.TempDir()
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	docs := map[string]string{
		"a.xml": `<r><t>xml keyword search</t><p>fuzzable content one</p></r>`,
		"b.xml": `<r><t>ranked retrieval</t><p>fuzzable content two</p></r>`,
		"c.xml": `<r><t>xml query language</t></r>`,
	}
	names := []string{"a.xml", "b.xml", "c.xml"}
	for _, n := range names {
		if err := e.AddXML(n, bytes.NewReader([]byte(docs[n]))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		f.Fatal(err)
	}
	want, err := e.Search("xml search")
	if err != nil || len(want) == 0 {
		f.Fatalf("reference query: %v results, %v", len(want), err)
	}
	addRetiredNaiveFiles(f, e)
	addRetiredListFiles(f, e)
	addRetiredRanksBlob(f, e, e.rank.Scores)
	e.Close()

	var files []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return rerr
		}
		files = append(files, rel)
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	sort.Strings(files)
	if len(files) < 10 {
		f.Fatalf("only %d persisted files found", len(files))
	}

	// Seed every file with a flip near its start, a flip of its last byte
	// (page padding, a manifest envelope's tail) and a truncation.
	for i, rel := range files {
		st, err := os.Stat(filepath.Join(dir, rel))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint32(i), uint32(3), byte(0x40), false)
		f.Add(uint32(i), uint32(st.Size()-1), byte(0x01), false)
		f.Add(uint32(i), uint32(7), byte(0x01), true)
	}

	f.Fuzz(func(t *testing.T, fileIdx, off uint32, mask byte, truncate bool) {
		rel := files[int(fileIdx)%len(files)]
		path := filepath.Join(dir, rel)
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}()
		if len(pristine) == 0 {
			t.Skip("empty file")
		}
		var mut []byte
		if truncate {
			mut = pristine[:int(off)%len(pristine)]
		} else {
			if mask == 0 {
				t.Skip("identity flip")
			}
			mut = append([]byte{}, pristine...)
			mut[int(off)%len(mut)] ^= mask
		}
		if bytes.Equal(mut, pristine) {
			t.Skip("mutation is a no-op")
		}
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenEngine(dir)
		if err != nil {
			return // rejected, as a checksum-covered mutation must be
		}
		got, qerr := re.Search("xml search")
		re.Close()
		if qerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("OpenEngine silently opened a DIFFERENT engine over mutated %s (truncate=%v off=%d mask=%#x): %v",
				rel, truncate, off, mask, qerr)
		}
	})
}
