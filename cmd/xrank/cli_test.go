package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the xrank and xrank-gen binaries once per test run.
func buildTools(t *testing.T) (xrankBin, genBin string) {
	t.Helper()
	dir := t.TempDir()
	xrankBin = filepath.Join(dir, "xrank")
	genBin = filepath.Join(dir, "xrank-gen")
	for bin, pkg := range map[string]string{xrankBin: "xrank/cmd/xrank", genBin: "xrank/cmd/xrank-gen"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return xrankBin, genBin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	xrankBin, genBin := buildTools(t)
	work := t.TempDir()
	corpus := filepath.Join(work, "corpus")
	idx := filepath.Join(work, "idx")

	out := run(t, genBin, "-kind", "dblp", "-out", corpus, "-docs", "6", "-papers", "40")
	if !strings.Contains(out, "wrote 6 file(s)") {
		t.Fatalf("gen output: %s", out)
	}
	files, err := filepath.Glob(filepath.Join(corpus, "*.xml"))
	if err != nil || len(files) != 6 {
		t.Fatalf("generated files: %v %v", files, err)
	}

	out = run(t, xrankBin, append([]string{"index", "-dir", idx}, files...)...)
	if !strings.Contains(out, "indexed 6 documents") {
		t.Fatalf("index output: %s", out)
	}
	if !strings.Contains(out, "0 dangling") {
		t.Fatalf("index left dangling links: %s", out)
	}

	out = run(t, xrankBin, "search", "-dir", idx, "-stats", "-m", "5", "gray")
	if !strings.Contains(out, "jim gray") {
		t.Fatalf("search output missing anecdote results: %s", out)
	}
	if !strings.Contains(out, "page reads") || !strings.Contains(out, "postings: ") {
		t.Fatalf("search -stats output missing stats: %s", out)
	}

	// Algorithms and error paths.
	for _, algo := range []string{"dil", "rdil", "hdil"} {
		out = run(t, xrankBin, "search", "-dir", idx, "-algo", algo, "gray")
		if !strings.Contains(out, "1.") {
			t.Fatalf("algo %s produced no results: %s", algo, out)
		}
	}
	if _, err := exec.Command(xrankBin, "search", "-dir", idx, "-algo", "bogus", "x").CombinedOutput(); err == nil {
		t.Errorf("bogus algorithm should fail")
	}
	if _, err := exec.Command(xrankBin, "search", "-dir", filepath.Join(work, "missing"), "x").CombinedOutput(); err == nil {
		t.Errorf("missing index dir should fail")
	}
	out = run(t, xrankBin, "search", "-dir", idx, "zzzznotthere", "gray")
	if !strings.Contains(out, "no results") {
		t.Fatalf("conjunctive miss should say 'no results': %s", out)
	}

	// Extension flags: disjunctive rescues the miss; DIL answers;
	// fragments render XML.
	out = run(t, xrankBin, "search", "-dir", idx, "-or", "zzzznotthere", "gray")
	if strings.Contains(out, "no results") {
		t.Fatalf("disjunctive should match: %s", out)
	}
	out = run(t, xrankBin, "search", "-dir", idx, "-algo", "dil", "gray")
	if !strings.Contains(out, "1.") {
		t.Fatalf("dil search: %s", out)
	}
	out = run(t, xrankBin, "search", "-dir", idx, "-frag", "-m", "1", "gray")
	if !strings.Contains(out, "<author>") {
		t.Fatalf("fragment output: %s", out)
	}
}

func TestCLIGenKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	_, genBin := buildTools(t)
	for kind, minFiles := range map[string]int{"xmark": 1, "html": 5, "perf": 1} {
		out := t.TempDir()
		run(t, genBin, "-kind", kind, "-out", out, "-items", "30", "-pages", "5", "-blocks", "500")
		entries, err := os.ReadDir(out)
		if err != nil || len(entries) < minFiles {
			t.Errorf("kind %s wrote %d files (%v)", kind, len(entries), err)
		}
	}
}

func TestSplitComma(t *testing.T) {
	got := splitComma("a,b,,c")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("splitComma = %v", got)
	}
	if splitComma("") != nil {
		t.Errorf("splitComma empty should be nil")
	}
}
