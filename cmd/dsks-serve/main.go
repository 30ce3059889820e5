// Command dsks-serve is the production query server: it opens (or
// generates) a database and serves the HTTP/JSON query API of
// internal/server, with admission control, a version-checked result
// cache, and live observability on /healthz, /varz and /metricsz.
//
// Serve a generated dataset:
//
//	dsks-serve -addr :8080 -preset SYN -scale 200 -index SIF
//
// Serve a snapshot written with dsks.SaveTo:
//
//	dsks-serve -addr :8080 -db ./snap
//
// Shard the road network 4 ways and serve through the scatter-gather
// router (queries fan out to the routed shards and merge; -db reopens a
// sharded snapshot written by the set's SaveTo):
//
//	dsks-serve -addr :8080 -preset SYN -scale 200 -shards 4
//
// Load generation lives in the benchmark (go run ./bench), and the
// process contract — drain on SIGTERM, crash recovery from -wal, option
// errors — is checked by this package's tests, which run the binary.
//
// The process drains cleanly on SIGINT/SIGTERM: the listener closes,
// in-flight queries finish (up to -drain-timeout), and the exit code is 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsks"
	"dsks/internal/server"
	"dsks/internal/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dsks-serve:", err)
		os.Exit(1)
	}
}

// cli is dsks-serve's command line, declared on one flag set.
type cli struct {
	fs *flag.FlagSet

	addr, dbDir, preset, kind, walDir                               string
	scale, maxIn, queue, cache, landmarks, degradeN, breakN, shards int
	replicas, legRetries                                            int
	seed                                                            int64
	iolat, defTO, maxTO, drainTO, breakerTO, hedgeAfter             time.Duration
	buffer                                                          float64
	oracle, checksums, partialRes                                   bool
	maxStale                                                        uint64
}

// newCLI declares dsks-serve's flags on fs.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{fs: fs}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dbDir, "db", "", "open a database snapshot (dsks.SaveTo directory) instead of generating")
	fs.StringVar(&c.preset, "preset", "SYN", "generated dataset preset (SYN, NA, TW, SF); ignored with -db")
	fs.IntVar(&c.scale, "scale", 200, "scale denominator for generated presets")
	fs.Int64Var(&c.seed, "seed", 1, "random seed for generated presets")
	fs.StringVar(&c.kind, "index", "SIF", "object index: IF, SIF, SIF-P")
	fs.DurationVar(&c.iolat, "iolat", 0, "synthetic I/O latency per buffer miss")
	fs.Float64Var(&c.buffer, "buffer", 0, "buffer pool fraction (0 = library default)")
	fs.IntVar(&c.maxIn, "max-inflight", 16, "queries executing concurrently")
	fs.IntVar(&c.queue, "queue-depth", 64, "requests waiting for an execution slot (beyond: 429)")
	fs.DurationVar(&c.defTO, "default-timeout", 2*time.Second, "per-request deadline when the client sends none")
	fs.DurationVar(&c.maxTO, "max-timeout", 30*time.Second, "cap on client-requested deadlines")
	fs.IntVar(&c.cache, "cache-size", 4096, "result cache capacity in entries (negative disables)")
	fs.DurationVar(&c.drainTO, "drain-timeout", 10*time.Second, "shutdown drain budget for in-flight queries")

	fs.StringVar(&c.walDir, "wal", "", "write-ahead log directory: mutations are durable before they are acked")

	fs.BoolVar(&c.oracle, "oracle", false, "build the ALT landmark distance oracle at startup (accelerates diversified queries)")
	fs.IntVar(&c.landmarks, "landmarks", 0, "landmark count for -oracle (0 = library default)")
	fs.BoolVar(&c.checksums, "checksums", false, "verify per-page CRC32C checksums on every buffer miss")
	fs.IntVar(&c.degradeN, "degrade-after", 3, "consecutive storage errors before the server reports degraded")
	fs.IntVar(&c.breakN, "break-after", 5, "consecutive storage errors before the circuit breaker opens")
	fs.DurationVar(&c.breakerTO, "breaker-cooldown", time.Second, "open-circuit cooldown before a half-open probe")

	fs.IntVar(&c.shards, "shards", 1, "shard the road network N ways and serve through the scatter-gather router")
	fs.BoolVar(&c.partialRes, "partial-results", false, "sharded: answer with merged survivors (HTTP 206) when a shard fails, instead of failing the query")
	fs.IntVar(&c.replicas, "replicas", 0, "sharded: WAL-shipped read replicas per shard (requires -wal); reads fail over to them when a primary dies")
	fs.DurationVar(&c.hedgeAfter, "hedge-after", 25*time.Millisecond, "sharded: race a replica against a primary leg slower than this (0 disables hedging)")
	fs.Uint64Var(&c.maxStale, "max-staleness", 4096, "sharded: max log records a failover replica may lag behind the pinned primary LSN (0 = unbounded)")
	fs.IntVar(&c.legRetries, "leg-retries", 2, "sharded: transient-error retries per fan-out leg before failing over")
	return c
}

// dbOptions maps the flags to database options. A snapshot (-db) carries
// its own index kind, buffer fraction and oracle landmarks and seed, and
// dsks.OpenPath keeps a saved value where the option is zero: so with
// -db, only the flags the command line sets override the snapshot.
func (c *cli) dbOptions() dsks.Options {
	opts := dsks.Options{
		Index:          indexKind(c.kind),
		IOLatency:      c.iolat,
		BufferFraction: c.buffer,
		Checksums:      c.checksums,
		Oracle:         c.oracle,
		Landmarks:      c.landmarks,
		OracleSeed:     uint64(c.seed),
		WALDir:         c.walDir,
	}
	if c.dbDir != "" {
		set := map[string]bool{}
		c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["index"] {
			opts.Index = ""
		}
		if !set["seed"] {
			opts.OracleSeed = 0
		}
	}
	return opts
}

func run() error {
	c := newCLI(flag.CommandLine)
	flag.Parse()
	opts := c.dbOptions()
	cfg := server.Config{
		Addr:            c.addr,
		MaxInflight:     c.maxIn,
		QueueDepth:      c.queue,
		DefaultTimeout:  c.defTO,
		MaxTimeout:      c.maxTO,
		CacheSize:       cacheSize(c.cache),
		DegradeAfter:    c.degradeN,
		BreakAfter:      c.breakN,
		BreakerCooldown: c.breakerTO,
	}

	// The backend: one database, or an N-way shard set behind the router.
	var (
		srv          *server.Server
		desc         string
		setup        string // where set-up went, for the banner
		closeBackend func() error
		durable      func() string
		kind         dsks.IndexKind // the kind opened, a snapshot's own with -db
	)
	if c.shards > 1 {
		set, d, generated, err := openSet(c.dbDir, c.preset, c.scale, c.seed, c.shards, shard.Options{
			DB: opts, Partial: c.partialRes,
			Replicas: c.replicas, HedgeAfter: c.hedgeAfter,
			MaxStaleness: c.maxStale, LegRetries: c.legRetries,
			Seed: uint64(c.seed),
		})
		if err != nil {
			return err
		}
		policy := "first-error-wins"
		if c.partialRes {
			policy = "partial-results"
		}
		if c.replicas > 0 {
			policy += fmt.Sprintf(", %d replicas/shard, hedge %s, staleness bound %d", c.replicas, c.hedgeAfter, c.maxStale)
		}
		srv = server.NewRouter(set, cfg)
		desc = fmt.Sprintf("%s over %d shards (%s)", d, set.Shards(), policy)
		var times dsks.SetupTimes
		for i := 0; i < set.Shards(); i++ {
			times = times.Add(set.DB(i).SetupTimes())
		}
		setup = fmt.Sprintf("generate %v, %v (the shards' primaries, summed)", generated.Round(time.Millisecond), times)
		kind = set.DB(0).Options().Index
		closeBackend = set.Close
		durable = func() string { return fmt.Sprintf("durable LSNs %v", set.DurableLSNs()) }
	} else {
		db, d, generated, err := openDB(c.dbDir, c.preset, c.scale, c.seed, opts)
		if err != nil {
			return err
		}
		srv = server.New(db, cfg)
		desc = d
		setup = fmt.Sprintf("generate %v, %v", generated.Round(time.Millisecond), db.SetupTimes())
		kind = db.Options().Index
		closeBackend = db.Close
		durable = func() string { return fmt.Sprintf("durable LSN %d", db.DurableLSN()) }
	}
	// Installed before the listener binds: a signal that arrives the moment
	// the server first answers still drains and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc, err := srv.Start()
	if err != nil {
		return err
	}
	fmt.Printf("dsks-serve: serving %s on %s (index %s, max-inflight %d, queue %d, cache %d)\n",
		desc, srv.Addr(), kind, c.maxIn, c.queue, c.cache)
	fmt.Printf("dsks-serve: set-up: %s\n", setup)
	if c.walDir != "" {
		fmt.Printf("dsks-serve: write-ahead log in %s (%s)\n", c.walDir, durable())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("dsks-serve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), c.drainTO)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	// Flush and close the write-ahead log(s) so the final group commit is
	// on disk before the process reports a clean exit.
	if err := closeBackend(); err != nil {
		return fmt.Errorf("closing backend: %w", err)
	}
	fmt.Println("dsks-serve: drained cleanly")
	return nil
}

// openSet opens a sharded snapshot (its manifest fixes the shard count),
// or partitions the generated preset dataset n ways; generated is how long
// generating it took.
func openSet(dir, preset string, scale int, seed int64, n int, opts shard.Options) (set *shard.Set, desc string, generated time.Duration, err error) {
	if dir != "" {
		if set, err = shard.OpenSetPath(dir, opts); err != nil {
			return nil, "", 0, fmt.Errorf("opening sharded snapshot %s: %w", dir, err)
		}
		return set, "snapshot " + dir, 0, nil
	}
	start := time.Now()
	ds, err := dsks.GeneratePreset(dsks.Preset(preset), scale, seed)
	if err != nil {
		return nil, "", 0, err
	}
	generated = time.Since(start)
	if set, err = shard.Open(ds.Graph, ds.Objects, ds.VocabSize, n, opts); err != nil {
		return nil, "", 0, err
	}
	desc = fmt.Sprintf("%s/%d seed %d (%d objects)", preset, scale, seed, set.LiveObjects())
	return set, desc, generated, nil
}

// openDB opens the snapshot directory, or generates the preset dataset;
// generated is how long generating it took.
func openDB(dir, preset string, scale int, seed int64, opts dsks.Options) (db *dsks.DB, desc string, generated time.Duration, err error) {
	if dir != "" {
		if db, err = dsks.OpenPath(dir, opts); err != nil {
			return nil, "", 0, fmt.Errorf("opening snapshot %s: %w", dir, err)
		}
		return db, "snapshot " + dir, 0, nil
	}
	start := time.Now()
	ds, err := dsks.GeneratePreset(dsks.Preset(preset), scale, seed)
	if err != nil {
		return nil, "", 0, err
	}
	generated = time.Since(start)
	if db, err = dsks.OpenDataset(ds, opts); err != nil {
		return nil, "", 0, err
	}
	desc = fmt.Sprintf("%s/%d seed %d (%d objects)", preset, scale, seed, ds.Objects.Live())
	return db, desc, generated, nil
}

// indexKind maps the flag spelling to the library constant.
func indexKind(s string) dsks.IndexKind {
	if s == "SIFP" {
		return dsks.IndexSIFP
	}
	return dsks.IndexKind(s) // Open rejects an unknown kind with ErrBadOptions
}

// cacheSize maps the flag to the server convention (0 = default there, so
// a user's explicit 0 becomes "disabled").
func cacheSize(n int) int {
	if n == 0 {
		return -1
	}
	return n
}
