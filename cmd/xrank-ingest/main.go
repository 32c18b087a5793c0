// Command xrank-ingest streams a Wikipedia-abstract XML dump into an
// XRANK engine:
//
//	xrank-ingest -in enwiki-abstract.xml -dir ./idx              build or extend a local index
//	xrank-ingest -in dump.xml.gz -dir ./idx -batch 2000          gzip input, bigger batches
//	xrank-ingest -in dump.xml -mode http -url http://host:8080   POST /api/docs to a running server
//
// The dump is parsed with a streaming token loop (one <doc> resident at
// a time), so memory stays bounded on multi-gigabyte inputs. Documents
// commit in batches — a fresh directory's first batch builds the engine,
// every later batch lands through AddDocs, whose folds keep the segment
// count bounded — and a checkpoint is durably written after each
// committed batch, so a killed
// ingest resumes exactly after the last committed document (seekable
// inputs seek to the recorded offset; gzip inputs re-read and skip by
// count). Document names are deterministic (wiki-NNNNNNNN.xml), so a
// resume reproduces the names a one-shot run would have used.
package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xrank"
	"xrank/internal/ingest"
	"xrank/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "xrank-ingest: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("xrank-ingest", flag.ContinueOnError)
	in := fl.String("in", "", "abstracts dump to ingest (.xml or .xml.gz; required)")
	mode := fl.String("mode", "local", `"local" (build or extend the index at -dir) or "http" (POST /api/docs to -url)`)
	dir := fl.String("dir", "", "index directory (local mode; required)")
	serverURL := fl.String("url", "", "server base URL (http mode; required)")
	ckpt := fl.String("checkpoint", "", `checkpoint file (local default: <dir>/ingest.checkpoint; "none" disables)`)
	batch := fl.Int("batch", 1000, "documents per committed batch")
	limit := fl.Int64("limit", 0, "stop after this many total documents (0 = whole dump)")
	shards := fl.Int("shards", 0, "index shards when creating a fresh directory (0 = engine default)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1")
	}

	// The sink commits one batch durably (names are pre-assigned by the
	// caller from the checkpointed document counter).
	var sink func(batch map[string][]byte) error
	var done func() error
	fs := storage.DefaultFS(nil)
	switch *mode {
	case "local":
		if *dir == "" {
			return fmt.Errorf("-dir is required in local mode")
		}
		if *ckpt == "" {
			*ckpt = filepath.Join(*dir, "ingest.checkpoint")
		}
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		var e *xrank.Engine
		fresh := false
		if _, err := os.Stat(filepath.Join(*dir, "segments.json")); os.IsNotExist(err) {
			fresh = true
			e = xrank.NewEngine(&xrank.Config{IndexDir: *dir, Shards: *shards})
		} else if err != nil {
			return err
		} else if e, err = xrank.OpenEngine(*dir); err != nil {
			return err
		}
		defer e.Close()
		sink = func(b map[string][]byte) error {
			if fresh {
				// First batch of a fresh directory: build the base
				// segment (the durable commit the checkpoint records).
				// Name order keeps doc IDs deterministic, like AddDocs'
				// own internal sort.
				names := make([]string, 0, len(b))
				for name := range b {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					if err := e.AddXML(name, bytes.NewReader(b[name])); err != nil {
						return err
					}
				}
				if _, err := e.Build(); err != nil {
					return err
				}
				fresh = false
				return nil
			}
			add := make(map[string]io.Reader, len(b))
			for name, doc := range b {
				add[name] = bytes.NewReader(doc)
			}
			return e.AddDocs(add)
		}
		done = func() error {
			fmt.Fprintf(out, "index: %d docs, %d segments, %d suggest terms\n",
				e.NumDocs(), e.SegmentCount(), e.SuggestTerms())
			return nil
		}
	case "http":
		if *serverURL == "" {
			return fmt.Errorf("-url is required in http mode")
		}
		base := strings.TrimSuffix(*serverURL, "/")
		client := &http.Client{Timeout: 60 * time.Second}
		sink = func(b map[string][]byte) error {
			for name, doc := range b {
				u := base + "/api/docs?name=" + url.QueryEscape(name)
				resp, err := client.Post(u, "application/xml", bytes.NewReader(doc))
				if err != nil {
					return err
				}
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("POST %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
				}
			}
			return nil
		}
		done = func() error { return nil }
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}

	// Load the checkpoint and position the input after the last
	// committed document.
	checkpointing := *ckpt != "" && *ckpt != "none"
	cp := &ingest.Checkpoint{Source: filepath.Base(*in)}
	if checkpointing {
		old, err := ingest.LoadCheckpoint(fs, *ckpt)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if old != nil {
			if old.Source != cp.Source {
				return fmt.Errorf("checkpoint %s records source %q, not %q", *ckpt, old.Source, cp.Source)
			}
			cp = old
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	var sourceSize int64
	if st, err := f.Stat(); err == nil {
		sourceSize = st.Size()
	}
	if cp.Docs > 0 && cp.SourceSize != 0 && cp.SourceSize != sourceSize {
		return fmt.Errorf("dump size changed since checkpoint (%d != %d); delete %s to restart", sourceSize, cp.SourceSize, *ckpt)
	}
	cp.SourceSize = sourceSize

	var p *ingest.Parser
	gzipped := strings.HasSuffix(*in, ".gz")
	switch {
	case gzipped:
		zr, err := gzip.NewReader(f)
		if err != nil {
			return err
		}
		defer zr.Close()
		p = ingest.NewParser(zr)
		// Compressed input is not seekable: resume by re-reading and
		// discarding the committed prefix.
		for skipped := int64(0); skipped < cp.Docs; skipped++ {
			if _, err := p.Next(); err != nil {
				return fmt.Errorf("skipping %d committed docs: %w", cp.Docs, err)
			}
		}
	case cp.Docs > 0:
		if _, err := f.Seek(cp.Offset, io.SeekStart); err != nil {
			return err
		}
		p = ingest.ResumeParser(f, cp.Offset)
	default:
		p = ingest.NewParser(f)
	}
	if cp.Docs > 0 {
		fmt.Fprintf(out, "resuming after %d committed docs (batch %d)\n", cp.Docs, cp.Batches)
	}

	start := time.Now()
	ingested := int64(0)
	eof := false
	for !eof {
		if *limit > 0 && cp.Docs >= *limit {
			break
		}
		b := make(map[string][]byte, *batch)
		// batchOff is the offset just past the batch's last </doc> — not
		// p.InputOffset() at commit time, which after the final document
		// has consumed the whole feed and would checkpoint past </feed>.
		batchOff := cp.Offset
		for len(b) < *batch {
			if *limit > 0 && cp.Docs+int64(len(b)) >= *limit {
				break
			}
			a, err := p.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return fmt.Errorf("parse after %d docs: %w", cp.Docs+int64(len(b)), err)
			}
			b[ingest.DocName(cp.Docs+int64(len(b)))] = a.DocXML()
			batchOff = p.InputOffset()
		}
		if len(b) == 0 {
			break
		}
		if err := sink(b); err != nil {
			return fmt.Errorf("batch %d: %w", cp.Batches+1, err)
		}
		cp.Docs += int64(len(b))
		cp.Offset = batchOff
		cp.Batches++
		ingested += int64(len(b))
		if checkpointing {
			if err := ingest.SaveCheckpoint(fs, *ckpt, cp); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		fmt.Fprintf(out, "batch %d: %d docs committed (%.0f docs/s)\n",
			cp.Batches, cp.Docs, float64(ingested)/time.Since(start).Seconds())
	}
	fmt.Fprintf(out, "done: %d docs this run, %d total, %d batches, %.1fs\n",
		ingested, cp.Docs, cp.Batches, time.Since(start).Seconds())
	return done()
}
