package main

import (
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xrank"
	"xrank/internal/httpapi"
)

// instance is one built engine behind the serve mux on a loopback listener.
type instance struct {
	w        *workload
	sz       sizes
	seed     int64
	dir      string
	e        *xrank.Engine
	info     *xrank.BuildInfo
	docs     []doc
	xmlBytes int64
	url      string
	srv      *http.Server
	served   chan struct{}
	chk      checker

	// added and live are the writer's: every document AddDocs acknowledged,
	// and those of them not deleted since.
	added, live []string

	// setup is generation + AddXML + Build + listener up + warm-up; load is
	// the AddXML + Build part alone (the bulk write path).
	setup, load time.Duration
}

// setUp generates the workload's corpus from seed, builds it under a fresh
// directory of workDir, mounts httpapi.NewMux (through wrap, when the traced
// run needs a handler span) and sends the untimed warm-up requests.
func setUp(w *workload, sz sizes, seed int64, workDir string, wrap func(http.Handler) http.Handler) (in *instance, err error) {
	start := time.Now()
	dir, err := os.MkdirTemp(workDir, "index-*")
	if err != nil {
		return nil, err
	}
	in = &instance{w: w, sz: sz, seed: seed, dir: dir}
	defer func() {
		if err != nil {
			in.close()
		}
	}()

	literals := []string{engineJSON}
	if w.serve {
		literals = append(literals, serveJSON)
	}
	cfg, err := engineConfig(dir, literals...)
	if err != nil {
		return nil, err
	}
	in.docs = w.corpus(sz, seed)

	loadStart := time.Now()
	in.e = xrank.NewEngine(&cfg)
	for _, d := range in.docs {
		if err := in.e.AddXML(d.name, strings.NewReader(d.xml)); err != nil {
			return nil, fmt.Errorf("add %s: %w", d.name, err)
		}
		in.xmlBytes += int64(len(d.xml))
	}
	if in.info, err = in.e.Build(); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	in.load = time.Since(loadStart)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = httpapi.NewMux(in.e, httpapi.Options{})
	if wrap != nil {
		h = wrap(h)
	}
	in.srv = &http.Server{Handler: h}
	in.served = make(chan struct{})
	go func() {
		defer close(in.served)
		in.srv.Serve(ln) // returns once close() shuts the server down
	}()
	in.url = "http://" + ln.Addr().String()

	if err := in.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	in.setup = time.Since(start)
	return in, nil
}

// warmUp sends every client's warmupQueries, unrecorded, so lazy set-up
// (connections, buffer pools, the result cache) is done before timing.
func (in *instance) warmUp() error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			cl := newClient(in, fmt.Sprintf("warmup%d", c), nil)
			defer cl.close()
			for _, q := range warmupQueries(in.w, in.sz, cl.stream, c) {
				if _, err := cl.do(q); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the listener, waits for the serve goroutine, closes the
// engine and removes the index directory.
func (in *instance) close() {
	if in.srv != nil {
		in.srv.Close()
		<-in.served
	}
	if in.e != nil {
		in.e.Close()
	}
	os.RemoveAll(in.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
