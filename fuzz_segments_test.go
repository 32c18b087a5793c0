package xrank

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// FuzzSegmentsManifest drives the segments.json structural validator
// with arbitrary JSON: it must never panic, and any manifest it accepts
// must actually satisfy the invariants the engine relies on downstream —
// at least one segment, segment directories that are proper children of
// the index directory (never the index directory itself, nor an escape
// from it), and the segments partitioning the document list exactly
// (OpenEngineFS indexes documents and segment directories off these
// without re-checking).
func FuzzSegmentsManifest(f *testing.F) {
	valid := segmentsManifest{
		NextSeg: 3,
		RankVer: 1,
		Docs: []docEntry{
			{Name: "a.xml", File: "000000.xml", Size: 10, CRC32: 1},
			{Name: "b.xml", File: "000001.xml", Size: 11, CRC32: 2, Deleted: true},
			{Name: "a.xml", File: "000002.xml", Size: 12, CRC32: 3},
		},
		Segments: []segmentEntry{
			{ID: 0, Dir: "seg-000000", RankVer: 0, Docs: []uint32{0, 1}},
			{ID: 2, Dir: "seg-000002", RankVer: 1, Docs: []uint32{2}},
		},
	}
	vb, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vb)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"next_seg":-1,"segments":[{"id":-1}]}`))
	f.Add([]byte(`{"next_seg":1,"rank_ver":0,"docs":[{"name":"a","file":"f"}],"segments":[{"id":0,"dir":"../evil","rank_ver":0,"docs":[0]}]}`))
	f.Add([]byte(`{"next_seg":1,"rank_ver":0,"docs":[{"name":"a","file":"f"}],"segments":[{"id":0,"dir":".","rank_ver":0,"docs":[0]}]}`))
	f.Add([]byte(`{"next_seg":1,"rank_ver":0,"docs":[{"name":"a","file":"f"}],"segments":[{"id":0,"dir":"seg-000000","rank_ver":0,"docs":[0,0]}]}`))
	f.Add([]byte(`{"next_seg":2,"rank_ver":0,"docs":[],"segments":[{"id":1,"dir":"seg-000001","rank_ver":0,"docs":[4294967295]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sm segmentsManifest
		if err := json.Unmarshal(data, &sm); err != nil {
			return
		}
		if err := validateSegmentsManifest(&sm); err != nil {
			return // rejected is always acceptable
		}
		// Accepted: re-derive the invariants independently.
		if len(sm.Segments) == 0 {
			t.Fatalf("validator accepted a manifest with no segments: %s", data)
		}
		owned := 0
		seen := make(map[int]bool, len(sm.Segments))
		for _, seg := range sm.Segments {
			if seg.ID < 0 || seg.ID >= sm.NextSeg || seen[seg.ID] {
				t.Fatalf("validator accepted segment id %d (next_seg %d, dup=%v): %s",
					seg.ID, sm.NextSeg, seen[seg.ID], data)
			}
			seen[seg.ID] = true
			if seg.Dir != filepath.Base(seg.Dir) || seg.Dir == "." || seg.Dir == ".." {
				t.Fatalf("validator accepted segment dir %q: %s", seg.Dir, data)
			}
			for _, d := range seg.Docs {
				if int(d) >= len(sm.Docs) {
					t.Fatalf("validator accepted out-of-range document %d: %s", d, data)
				}
			}
			owned += len(seg.Docs)
		}
		if owned != len(sm.Docs) {
			t.Fatalf("validator accepted a non-partition: %d owned of %d documents: %s",
				owned, len(sm.Docs), data)
		}
	})
}
