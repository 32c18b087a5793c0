// Command xrank indexes and searches XML/HTML document collections with
// the XRANK ranked keyword search engine.
//
//	xrank index  -dir ./idx docs/*.xml pages/*.html
//	xrank search -dir ./idx -m 10 -algo hdil "xql language"
//	xrank serve  -dir ./idx -addr :8080
//
// The index directory is self-contained (inverted lists, their skip
// indexes, ElemRanks and a document store), so search/serve reopen it
// without the original files.
package main

import (
	"flag"
	"fmt"
	"os"

	"xrank"
	"xrank/internal/httpapi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = cmdIndex(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "xrank: unknown command %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xrank:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  xrank index  -dir DIR [flags] FILE...   build an index over XML/HTML files
  xrank search -dir DIR [flags] QUERY     run a ranked keyword query
  xrank serve  -dir DIR [-addr :8080]     serve a search API + mini UI
`)
	os.Exit(2)
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory (required)")
	decay := fs.Float64("decay", 0.75, "per-level rank decay in (0,1]")
	shards := fs.Int("shards", 1, "partition the index into N document shards queried in parallel")
	answerTags := fs.String("answer-tags", "", "comma-separated answer-node tags (empty: all elements)")
	fs.Parse(args)
	if *dir == "" || fs.NArg() == 0 {
		return fmt.Errorf("index: -dir and at least one input file are required")
	}
	if *shards < 1 {
		return fmt.Errorf("index: -shards must be >= 1")
	}
	cfg := &xrank.Config{IndexDir: *dir, Decay: *decay, Shards: *shards}
	if *answerTags != "" {
		cfg.AnswerTags = splitComma(*answerTags)
	}
	e := xrank.NewEngine(cfg)
	for _, path := range fs.Args() {
		if err := e.AddFile(path); err != nil {
			return err
		}
	}
	info, err := e.Build()
	if err != nil {
		return err
	}
	defer e.Close()
	fmt.Printf("indexed %d documents, %d elements, %d terms\n", info.NumDocs, info.NumElements, info.Terms)
	fmt.Printf("ElemRank: %d iterations in %v (links: %d resolved, %d dangling)\n",
		info.ElemRankIterations, info.ElemRankTime.Round(1e6), info.ResolvedLinks, info.DanglingLinks)
	sz := info.Sizes
	fmt.Printf("index size: DIL %.2fMB, RDIL %.2fMB (HDIL's rank prefix: %.2fMB of it), skip indexes %.2fMB\n",
		mb(sz.DILList), mb(sz.RDILList), mb(sz.HDILRank), mb(sz.DILSkip+sz.RDILSkip))
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory (required)")
	m := fs.Int("m", 10, "number of results")
	algo := fs.String("algo", "hdil", "algorithm: dil, rdil, hdil")
	stats := fs.Bool("stats", false, "print query cost statistics")
	disjunctive := fs.Bool("or", false, "disjunctive semantics (match any keyword)")
	fragments := fs.Bool("frag", false, "print each result's XML fragment")
	fs.Parse(args)
	if *dir == "" || fs.NArg() == 0 {
		return fmt.Errorf("search: -dir and a query are required")
	}
	a, err := parseAlgo(*algo)
	if err != nil {
		return err
	}
	e, err := xrank.OpenEngine(*dir)
	if err != nil {
		return err
	}
	defer e.Close()
	query := ""
	for i, w := range fs.Args() {
		if i > 0 {
			query += " "
		}
		query += w
	}
	results, qs, err := e.SearchDetailed(query, xrank.SearchOptions{
		TopM:        *m,
		Algorithm:   a,
		Disjunctive: *disjunctive,
	})
	if err != nil {
		return err
	}
	if len(results) == 0 {
		fmt.Println("no results")
		return nil
	}
	for i, r := range results {
		fmt.Printf("%2d. [%.3g] <%s>  %s (%s)\n    %s\n", i+1, r.Score, r.Tag, r.Path, r.Doc, r.Snippet)
		if *fragments {
			frag, err := e.Fragment(r.DeweyID, 3)
			if err != nil {
				return err
			}
			fmt.Printf("    %s\n", frag)
		}
	}
	if *stats {
		fmt.Printf("\n%s: %v wall, %d page reads (%d seq, %d random), %v simulated cold-disk\n",
			qs.Algorithm, qs.WallTime.Round(1e3), qs.IO.Reads, qs.IO.SeqReads, qs.IO.RandReads, qs.SimulatedTime.Round(1e5))
		fmt.Printf("blocks: %d decoded, %d skipped; postings: %d\n", qs.IO.BlocksDecoded, qs.IO.BlocksSkipped, qs.IO.Postings)
		if qs.SwitchedToDIL {
			fmt.Printf("hdil: switched to DIL (%s) after %d ranked entries\n", qs.SwitchReason, qs.RankedEntriesRead)
		} else if qs.Algorithm == xrank.AlgoHDIL {
			fmt.Printf("hdil: stayed ranked, %d entries read\n", qs.RankedEntriesRead)
		}
	}
	return nil
}

func parseAlgo(s string) (xrank.Algorithm, error) { return httpapi.ParseAlgo(s) }

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func mb(n int64) float64 { return float64(n) / (1 << 20) }
