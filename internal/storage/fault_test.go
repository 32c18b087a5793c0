package storage

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicCrashMatrix replays an atomic overwrite once per
// write boundary with a crash armed there: after every crash the file
// must hold exactly the old or the new content, never a mixture.
func TestWriteFileAtomicCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	oldData := []byte("the old contents of the file")
	newData := []byte("the replacement, rather longer than what was there before")
	if err := WriteFileAtomic(nil, path, oldData); err != nil {
		t.Fatal(err)
	}

	// Size the matrix with a clean faulted run.
	clean := NewFaultFS(nil, 1)
	if err := WriteFileAtomic(clean, path, newData); err != nil {
		t.Fatal(err)
	}
	n := clean.WriteOps()
	if n < 4 { // create, write, sync, rename (+ dir sync)
		t.Fatalf("clean run counted %d write boundaries, expected at least 4", n)
	}

	for k := int64(1); k <= n; k++ {
		if err := WriteFileAtomic(nil, path, oldData); err != nil {
			t.Fatal(err)
		}
		ffs := NewFaultFS(nil, k) // different seed per point: vary torn prefixes
		ffs.CrashAtWriteOp(k)
		err := WriteFileAtomic(ffs, path, newData)
		if err == nil {
			t.Fatalf("crash at op %d: write reported success", k)
		}
		if !ffs.Crashed() {
			t.Fatalf("crash at op %d never fired (run has %d ops)", k, n)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at op %d: destination unreadable: %v", k, rerr)
		}
		if string(got) != string(oldData) && string(got) != string(newData) {
			t.Fatalf("crash at op %d: destination holds a third state: %q", k, got)
		}
	}
}

// TestWriteFileAtomicShortWrite checks that an injected short write
// fails the atomic protocol and leaves the old content intact.
func TestWriteFileAtomicShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(nil, path, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil, 7)
	ffs.ShortWriteAtOp(2) // boundary 1 is Create; 2 is the WriteAt
	if err := WriteFileAtomic(ffs, path, []byte("this write is cut short")); err == nil {
		t.Fatal("short write went unreported")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "intact" {
		t.Fatalf("after short write: %q, %v", got, err)
	}
}

// TestFaultFSInjectedWriteErrors checks the EIO/ENOSPC model: matching
// write boundaries fail with the injected error, bounded by n.
func TestFaultFSInjectedWriteErrors(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 3)
	isBin := func(path string) bool { return filepath.Ext(path) == ".bin" }
	ffs.FailWrites(isBin, ErrInjected, 1)

	if _, err := ffs.Create(filepath.Join(dir, "a.bin")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first matching create: %v, want ErrInjected", err)
	}
	f, err := ffs.Create(filepath.Join(dir, "b.bin"))
	if err != nil {
		t.Fatalf("budget exhausted but create still failed: %v", err)
	}
	f.Close()
	if _, err := ffs.Create(filepath.Join(dir, "c.txt")); err != nil {
		t.Fatalf("non-matching path: %v", err)
	}
}

// TestFaultFSTransientReads checks bounded read faults: the first n
// matching reads fail, later ones succeed — the shape retry loops lean on.
func TestFaultFSTransientReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.txt")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil, 5)
	ffs.FailReads(nil, ErrInjected, 2)
	for i := 0; i < 2; i++ {
		if _, err := ffs.ReadFile(path); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: %v, want ErrInjected", i, err)
		}
	}
	if b, err := ffs.ReadFile(path); err != nil || string(b) != "payload" {
		t.Fatalf("after fault budget: %q, %v", b, err)
	}
}

// TestManifestCorruptionDetection round-trips a manifest and then
// verifies that bit flips, truncation and format skew all surface as
// ErrCorrupt — never as silently wrong data.
func TestManifestCorruptionDetection(t *testing.T) {
	type payload struct {
		Name  string `json:"name"`
		Count int    `json:"count"`
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := WriteManifestAtomic(nil, path, payload{Name: "x", Count: 42}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := ReadManifest(nil, path, &got); err != nil || got != (payload{"x", 42}) {
		t.Fatalf("roundtrip: %+v, %v", got, err)
	}

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the payload: the CRC must catch it.
	for i, b := range pristine {
		if b == '4' { // the 42
			mut := append([]byte{}, pristine...)
			mut[i] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := ReadManifest(nil, path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: %v, want ErrCorrupt", err)
	}
	// Truncation makes it unparsable: still a corrupt report, not a panic.
	if err := os.WriteFile(path, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadManifest(nil, path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: %v, want ErrCorrupt", err)
	}
	// A future format version is rejected, not misread.
	var env manifestEnvelope
	if err := json.Unmarshal(pristine, &env); err != nil {
		t.Fatal(err)
	}
	env.Format = ManifestFormat + 1
	future, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadManifest(nil, path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future format: %v, want ErrCorrupt", err)
	}
}

// TestBlobCorruptionDetection exercises ReadBlob's four checks: magic,
// version, declared length and checksum.
func TestBlobCorruptionDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.bin")
	const magic = 0x0b10b0b1
	body := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := WriteBlobAtomic(nil, path, magic, body); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadBlob(nil, path, magic); err != nil || len(got) != len(body) {
		t.Fatalf("roundtrip: %v, %v", got, err)
	}
	if _, err := ReadBlob(nil, path, magic+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: %v", err)
	}
	pristine, _ := os.ReadFile(path)
	mut := append([]byte{}, pristine...)
	mut[len(mut)-1] ^= 0x80 // flip a payload bit
	os.WriteFile(path, mut, 0o644)
	if _, err := ReadBlob(nil, path, magic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: %v", err)
	}
	os.WriteFile(path, pristine[:len(pristine)-3], 0o644) // truncate
	if _, err := ReadBlob(nil, path, magic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
	os.WriteFile(path, pristine[:blobHeaderSize-1], 0o644) // shorter than header
	if _, err := ReadBlob(nil, path, magic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sub-header: %v", err)
	}
}

// TestVerifyFile checks the sidecar size+CRC verification used for page
// files and lexicons.
func TestVerifyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.dat")
	data := make([]byte, 300*1024) // spans multiple ChecksumFile chunks
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := ChecksumFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Size != int64(len(data)) || sum.CRC32 != Checksum(data) {
		t.Fatalf("ChecksumFile = %+v", sum)
	}
	if err := VerifyFile(nil, path, sum); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(nil, path, FileSum{Size: sum.Size + 1, CRC32: sum.CRC32}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("size skew: %v", err)
	}
	if err := VerifyFile(nil, path, FileSum{Size: sum.Size, CRC32: sum.CRC32 ^ 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crc skew: %v", err)
	}
}

// TestAppendPageFailureKeepsCounters pins the fix for the append
// accounting bug: a failed AppendPage must not advance NumPages, and the
// next successful append reuses the same page ID.
func TestAppendPageFailureKeepsCounters(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 11)
	pf, err := CreatePageFileFS(ffs, filepath.Join(dir, "p.pf"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, PageSize)
	id0, err := pf.AppendPage(buf)
	if err != nil || id0 != 0 {
		t.Fatalf("first append: %v, %v", id0, err)
	}
	ffs.FailWrites(nil, ErrInjected, 1)
	if _, err := pf.AppendPage(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted append: %v", err)
	}
	if pf.NumPages() != 1 {
		t.Fatalf("failed append advanced the page count: pages=%d", pf.NumPages())
	}
	id1, err := pf.AppendPage(buf)
	if err != nil || id1 != 1 {
		t.Fatalf("append after fault: id=%v err=%v (want 1, nil)", id1, err)
	}
}

// TestFaultFSDeterminism: the same seed and crash point tear the same
// prefix, so a crash-matrix failure replays exactly.
func TestFaultFSDeterminism(t *testing.T) {
	tear := func(seed int64) []byte {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.bin")
		ffs := NewFaultFS(nil, seed)
		ffs.CrashAtWriteOp(2) // the WriteAt inside WriteFileAtomic
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(i)
		}
		WriteFileAtomic(ffs, path, data)
		got, _ := os.ReadFile(TempPath(path))
		return got
	}
	a, b := tear(42), tear(42)
	if string(a) != string(b) {
		t.Fatalf("same seed tore different prefixes: %d vs %d bytes", len(a), len(b))
	}
}
