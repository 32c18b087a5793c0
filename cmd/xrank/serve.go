package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"xrank"
	"xrank/internal/cache"
	"xrank/internal/httpapi"
)

// serveCacheBytesDefault is the serve command's result-cache size unless
// -cache-bytes picks one. Serving is exactly the workload the cache
// exists for, so it is on by default here (the engine library keeps it
// opt-in).
const serveCacheBytesDefault = 32 << 20

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory (required)")
	addr := fs.String("addr", ":8080", "listen address")
	slowMS := fs.Int("slowlog-ms", 0, "slow-query log threshold in milliseconds (0 = engine default 250, negative disables)")
	metrics := fs.Bool("metrics", true, "serve Prometheus metrics at /metrics")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof at /debug/pprof/")
	updates := fs.Bool("updates", false, "serve POST/DELETE /api/docs (mutates the index)")
	failDegraded := fs.Bool("fail-on-degraded", false, "fail queries (503) instead of serving partial results when shards are excluded")
	cacheBytes := fs.Int64("cache-bytes", serveCacheBytesDefault, "result cache size in bytes (0 disables)")
	coalesce := fs.Bool("coalesce", true, "coalesce concurrent identical queries into a single execution")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing /api/search requests (0 or negative disables admission control)")
	admissionQueue := fs.Int("admission-queue", 0, "admission wait-queue length (0 = 2x max-inflight; negative disables queueing)")
	maxSegments := fs.Int("max-segments", 0, "live index segments AddDocs may leave before folding more (0 = engine config or 4; negative sets no count bound)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("serve: -dir is required")
	}
	e, err := xrank.OpenEngine(*dir)
	if err != nil {
		return err
	}
	defer e.Close()
	e.SetFailOnDegraded(*failDegraded)
	if *slowMS != 0 {
		d := time.Duration(*slowMS) * time.Millisecond
		if *slowMS < 0 {
			d = -1
		}
		e.SlowLog().SetThreshold(d)
	}
	e.ConfigureResultCache(*cacheBytes)
	e.SetCoalesceQueries(*coalesce)
	var adm *cache.Admission
	if *maxInflight > 0 {
		adm = cache.NewAdmission(*maxInflight, *admissionQueue)
	}
	if *maxSegments != 0 {
		e.SetMaxSegments(*maxSegments)
	}
	log.Printf("xrank: serving on %s (index %s)", *addr, *dir)
	return http.ListenAndServe(*addr, httpapi.NewMux(e, httpapi.Options{
		Metrics: *metrics, Pprof: *pprofOn, Updates: *updates, Admission: adm,
	}))
}
