// Command xrank-shardd serves one or more XRANK shard replicas: each
// -shard mounts a complete engine directory behind the standard
// internal/httpapi stack, plus the cluster-internal endpoints the
// coordinator and snapshot bootstrap use (/internal/shard/search,
// /internal/health, /internal/snapshot). A replica that should clone
// its data from a serving peer names the peer with -bootstrap; the
// snapshot is fetched with resume, every checksum is verified before
// the directory is opened, and the result is bit-identical to the
// source.
//
// Typical 2-shard replica:
//
//	xrank-shardd -addr :9101 -shard 0=/data/s0 -shard 1=/data/s1 \
//	    -bootstrap 0=http://peer:9100 -bootstrap 1=http://peer:9100
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"xrank"
	"xrank/internal/cache"
	"xrank/internal/cluster"
	"xrank/internal/httpapi"
)

// mountFlag collects repeated "N=value" flags into a shard → value map.
type mountFlag struct {
	name string
	m    map[int]string
}

func (f *mountFlag) String() string {
	var parts []string
	for k, v := range f.m {
		parts = append(parts, fmt.Sprintf("%d=%s", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f *mountFlag) Set(s string) error {
	eq := strings.IndexByte(s, '=')
	if eq <= 0 {
		return fmt.Errorf("-%s wants N=%s, got %q", f.name, f.name, s)
	}
	n, err := strconv.Atoi(s[:eq])
	if err != nil || n < 0 {
		return fmt.Errorf("-%s: bad shard number in %q", f.name, s)
	}
	if f.m == nil {
		f.m = make(map[int]string)
	}
	if _, dup := f.m[n]; dup {
		return fmt.Errorf("-%s: shard %d given twice", f.name, n)
	}
	f.m[n] = s[eq+1:]
	return nil
}

// bootstrapped reports whether dir already holds a committed engine
// (segments.json, the commit point, exists), so a restart skips the fetch.
func bootstrapped(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "segments.json"))
	return err == nil
}

func main() {
	addr := flag.String("addr", ":9100", "listen address")
	shards := &mountFlag{name: "shard"}
	flag.Var(shards, "shard", "shard mount as N=dir (repeatable)")
	boots := &mountFlag{name: "bootstrap"}
	flag.Var(boots, "bootstrap", "snapshot source as N=url: clone shard N's engine dir from a serving peer before opening (repeatable)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing searches per shard (0 or negative disables admission control)")
	admissionQueue := flag.Int("admission-queue", 0, "admission wait-queue length per shard (0 = 2x max-inflight; negative disables queueing)")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics at /metrics (default shard's registry)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof at /debug/pprof/")
	failDegraded := flag.Bool("fail-on-degraded", false, "fail queries (503) instead of serving partial results when local sub-shards are excluded")
	bootTimeout := flag.Int("bootstrap-timeout-ms", 600_000, "overall snapshot bootstrap deadline in milliseconds")
	flag.Parse()
	if len(shards.m) == 0 {
		log.Fatal("xrank-shardd: at least one -shard N=dir is required")
	}

	srv := cluster.NewShardServer()
	ids := make([]int, 0, len(shards.m))
	for id := range shards.m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		dir := shards.m[id]
		if peer, ok := boots.m[id]; ok && !bootstrapped(dir) {
			log.Printf("xrank-shardd: bootstrapping shard %d from %s into %s", id, peer, dir)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatalf("xrank-shardd: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(*bootTimeout)*time.Millisecond)
			man, err := cluster.FetchSnapshot(ctx, http.DefaultClient, peer, id, dir)
			cancel()
			if err != nil {
				log.Fatalf("xrank-shardd: bootstrap shard %d: %v", id, err)
			}
			log.Printf("xrank-shardd: shard %d bootstrapped (%d files verified)", id, len(man.Files))
		}
		e, err := xrank.OpenEngine(dir)
		if err != nil {
			log.Fatalf("xrank-shardd: open shard %d (%s): %v", id, dir, err)
		}
		defer e.Close()
		e.SetFailOnDegraded(*failDegraded)
		var adm *cache.Admission
		if *maxInflight > 0 {
			adm = cache.NewAdmission(*maxInflight, *admissionQueue)
		}
		if err := srv.Mount(id, e, dir, httpapi.Options{
			Metrics: *metrics, Pprof: *pprofOn, Admission: adm,
		}); err != nil {
			log.Fatalf("xrank-shardd: %v", err)
		}
	}
	log.Printf("xrank-shardd: serving shards %v on %s", srv.ShardIDs(), *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}
