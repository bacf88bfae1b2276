package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/server"
)

// runServe is the `rebase serve` subcommand: the long-running sweep
// daemon over a tiered result-cache backend (memory LRU over local
// disk).
func runServe(args []string) int {
	fs := flag.NewFlagSet("rebase serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8344", "listen address")
		workers    = fs.Int("workers", 1, "concurrent job executions (cache hits bypass the pool)")
		parallel   = fs.Int("parallel", 0, "concurrent simulations per job (0 = NumCPU)")
		cacheDir   = fs.String("cache-dir", "", "cache directory (default $TRACEREBASE_CACHE_DIR or the user cache dir)")
		memBytes   = fs.Int64("mem-bytes", 0, "in-memory tier budget in bytes (0 = 256 MiB)")
		noSlabs    = fs.Bool("no-trace-store", false, "disable the compiled-trace slab store")
		noExpStore = fs.Bool("no-exp-store", false, "disable the columnar experiment store (and GET /query)")
		quiet      = fs.Bool("q", false, "suppress operational log output")
	)
	fs.Parse(args)

	log := io.Writer(os.Stderr)
	if *quiet {
		log = io.Discard
	}

	dir := *cacheDir
	if dir == "" {
		var err error
		dir, err = experiments.DefaultCacheDir()
		if err != nil {
			return fail("serve: %v", err)
		}
	}

	// Memory LRU over local disk, written through. One backend serves
	// both the per-cell result cache and the whole-job blob store
	// (distinct key domains).
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dir})
	if err != nil {
		return fail("serve: %v", err)
	}
	backend := resultcache.NewTiered(resultcache.NewMemory(*memBytes), disk)
	cache := experiments.NewResultCache(backend)
	defer cache.Close() // closes both tiers

	base := experiments.SweepConfig{
		Parallelism: *parallel,
		Cache:       cache,
	}
	if ckpts, err := experiments.OpenCheckpointCache(dir, 0); err == nil {
		base.Checkpoints = ckpts
	} else {
		fmt.Fprintf(log, "rebase: checkpoint cache disabled: %v\n", err)
	}
	if !*noSlabs {
		store, err := experiments.OpenSlabStore(dir+"/slabs", 0, func(format string, a ...any) {
			fmt.Fprintf(log, "rebase: "+format+"\n", a...)
		})
		if err != nil {
			fmt.Fprintf(log, "rebase: trace store disabled: %v\n", err)
		} else {
			base.Slabs = store
			defer store.Close()
		}
	}
	if !*noExpStore {
		store, err := expstore.Open(expstore.Config{Dir: dir + "/exp", Warn: func(format string, a ...any) {
			fmt.Fprintf(log, "rebase: "+format+"\n", a...)
		}})
		if err != nil {
			fmt.Fprintf(log, "rebase: experiment store disabled: %v\n", err)
		} else {
			base.Exp = store
			defer store.Close()
		}
	}

	srv := server.New(server.Config{
		Backend: backend,
		Base:    base,
		Workers: *workers,
		Log:     log,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("serve: %v", err)
	}
	fmt.Fprintf(log, "rebase: serving on http://%s (workers=%d, cache=%s)\n",
		l.Addr(), *workers, dir)

	// SIGINT/SIGTERM triggers the graceful path: stop accepting, finish
	// in-flight jobs, then exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case sig := <-sigc:
		fmt.Fprintf(log, "rebase: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fail("serve: shutdown: %v", err)
		}
		fmt.Fprintf(log, "rebase: drained, exiting\n")
		return 0
	case err := <-done:
		if err != nil {
			return fail("serve: %v", err)
		}
		return 0
	}
}
