// Command jimserver serves the JIM inference API over HTTP — the
// demonstration's interactive tool as a JSON service, with production
// lifecycle controls: a session cap, idle-session eviction, a /stats
// endpoint for monitoring, and an optional durable session store so
// labeled work survives restarts.
//
//	jimserver -addr :8080 -max-sessions 10000 -session-ttl 30m \
//	          -store disk -data-dir /var/lib/jim
//
// With -wire-addr, the same sessions are also served over the compact
// binary wire protocol (length-prefixed frames, persistent pipelined
// connections — see the "Binary wire protocol" section of API.md) on a
// second listener; both listeners drain gracefully on shutdown.
//
// With -store disk, every accepted label, skip, and tuple batch is
// appended to a per-session write-ahead log before the response goes
// out, state is periodically folded into snapshots, and startup
// replays the store to resume every session exactly where it stood
// (see OPERATIONS.md for the operator guide).
//
// With -cluster-peers, N jimserver processes form one logical service:
// a consistent-hash ring pins each session to an owner node (requests
// to the wrong node answer 307 with the owner in X-Jim-Owner, or are
// proxied with -cluster-proxy), every committed event streams to a
// designated follower's -repl-addr listener, and on owner death the
// follower adopts its sessions via POST /v1/cluster/promote (see the
// "Running a cluster" section of OPERATIONS.md):
//
//	jimserver -addr :8080 -repl-addr :7080 -node-id n1 \
//	          -cluster-peers 'n1=host1:8080||host1:7080,n2=host2:8080||host2:7080'
//
// The API is versioned under /v1 with a structured error envelope
// {"error":{"code","message"}}; apart from the GET /healthz probe,
// unversioned paths answer 404. Endpoints (see API.md for the full
// contract):
//
//	POST   /v1/sessions              {"csv": "...", "strategy": "lookahead-maxmin"}
//	GET    /v1/sessions              paginated session list (?limit=, ?offset=)
//	GET    /v1/strategies            strategy discovery
//	GET    /v1/sessions/{id}/next    next proposed tuple
//	POST   /v1/sessions/{id}/label   {"index": 3, "label": "+"}
//	POST   /v1/sessions/{id}/step    answer + next proposal in one round trip
//	POST   /v1/sessions/{id}/tuples  stream new tuples into the instance
//	GET    /v1/sessions/{id}/result  inferred predicate + SQL
//	GET    /v1/sessions/{id}/export  persistable session file
//	GET    /v1/stats                 session counts, throughput, latency, store health
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// config is everything main parses; newServer is kept separate so
// tests can exercise flag wiring without binding a socket.
type config struct {
	addr         string
	wireAddr     string
	maxSessions  int
	sessionTTL   time.Duration
	sweepEvery   time.Duration
	maxBodyBytes int64

	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	scoreWorkers int

	storeBackend   string
	dataDir        string
	fsync          bool
	snapshotEvery  int
	snapshotMaxAge time.Duration

	nodeID         string
	clusterPeers   string
	replAddr       string
	clusterProxy   bool
	lease          time.Duration
	heartbeatEvery time.Duration
	rejoin         bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("jimserver", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&cfg.wireAddr, "wire-addr", "", "also serve the binary wire protocol on this address (empty = HTTP only; see API.md)")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 0, "max live sessions; creates beyond this get 429 (0 = unlimited)")
	fs.DurationVar(&cfg.sessionTTL, "session-ttl", 0, "evict sessions idle for this long (0 = never)")
	fs.DurationVar(&cfg.sweepEvery, "sweep-every", time.Minute, "how often the janitor scans for expired sessions")
	fs.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 32<<20, "cap on create/import/append/label/step request bodies; larger get 413 (0 = unlimited)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 30*time.Second, "max duration for reading an entire request, body included (0 = unlimited)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "max duration for writing a response (0 = unlimited)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "max keep-alive idle time before a connection is closed (0 = unlimited)")
	fs.IntVar(&cfg.scoreWorkers, "score-workers", 0, "cap on background scoring workers shared by all sessions (0 = GOMAXPROCS-1)")
	fs.StringVar(&cfg.storeBackend, "store", "mem", "session store backend: mem (no durability) or disk (WAL + snapshots under -data-dir)")
	fs.StringVar(&cfg.dataDir, "data-dir", "jim-data", "data directory for -store disk")
	fs.BoolVar(&cfg.fsync, "fsync", true, "fsync WAL appends and snapshots (group-committed); off trades machine-crash durability for latency")
	fs.IntVar(&cfg.snapshotEvery, "snapshot-every", server.DefaultSnapshotEvery, "fold a session's WAL into a snapshot after this many events")
	fs.DurationVar(&cfg.snapshotMaxAge, "snapshot-max-age", 5*time.Minute, "re-snapshot sessions whose WAL has grown for this long (0 = size policy only)")
	fs.StringVar(&cfg.nodeID, "node-id", "", "this node's id in -cluster-peers (required for cluster mode)")
	fs.StringVar(&cfg.clusterPeers, "cluster-peers", "", "static peer set 'id=http[|wire[|repl]],...' — turns on cluster mode (see OPERATIONS.md)")
	fs.StringVar(&cfg.replAddr, "repl-addr", "", "accept replication streams from the peer that follows this node (cluster mode)")
	fs.BoolVar(&cfg.clusterProxy, "cluster-proxy", false, "proxy non-owned requests to the owner instead of answering 307")
	fs.DurationVar(&cfg.lease, "lease", 0, "auto-failover: fail a peer unheard-from for this long, once a quorum of survivors confirms it unreachable (0 = operator-driven failover only)")
	fs.DurationVar(&cfg.heartbeatEvery, "heartbeat-every", 0, "heartbeat + detection period for -lease (0 = lease/4)")
	fs.BoolVar(&cfg.rejoin, "rejoin", true, "on startup, if the cluster marked this node failed, resync its former range from the holder and reclaim it")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.maxSessions < 0 {
		return cfg, fmt.Errorf("-max-sessions must be >= 0, got %d", cfg.maxSessions)
	}
	if cfg.sessionTTL < 0 {
		return cfg, fmt.Errorf("-session-ttl must be >= 0, got %v", cfg.sessionTTL)
	}
	if cfg.maxBodyBytes < 0 {
		return cfg, fmt.Errorf("-max-body-bytes must be >= 0, got %d", cfg.maxBodyBytes)
	}
	if cfg.readTimeout < 0 || cfg.writeTimeout < 0 || cfg.idleTimeout < 0 {
		return cfg, fmt.Errorf("timeouts must be >= 0, got read=%v write=%v idle=%v",
			cfg.readTimeout, cfg.writeTimeout, cfg.idleTimeout)
	}
	if cfg.scoreWorkers < 0 {
		return cfg, fmt.Errorf("-score-workers must be >= 0, got %d", cfg.scoreWorkers)
	}
	switch cfg.storeBackend {
	case "mem", "disk":
	default:
		return cfg, fmt.Errorf("-store must be mem or disk, got %q", cfg.storeBackend)
	}
	if cfg.storeBackend == "disk" && cfg.dataDir == "" {
		return cfg, fmt.Errorf("-store disk requires -data-dir")
	}
	if cfg.snapshotEvery < 1 {
		return cfg, fmt.Errorf("-snapshot-every must be >= 1, got %d", cfg.snapshotEvery)
	}
	if cfg.snapshotMaxAge < 0 {
		return cfg, fmt.Errorf("-snapshot-max-age must be >= 0, got %v", cfg.snapshotMaxAge)
	}
	if cfg.clusterPeers != "" && cfg.nodeID == "" {
		return cfg, fmt.Errorf("-cluster-peers requires -node-id")
	}
	if cfg.nodeID != "" && cfg.clusterPeers == "" {
		return cfg, fmt.Errorf("-node-id requires -cluster-peers")
	}
	if cfg.replAddr != "" && cfg.clusterPeers == "" {
		return cfg, fmt.Errorf("-repl-addr requires -cluster-peers")
	}
	if cfg.clusterProxy && cfg.clusterPeers == "" {
		return cfg, fmt.Errorf("-cluster-proxy requires -cluster-peers")
	}
	if cfg.lease < 0 {
		return cfg, fmt.Errorf("-lease must be >= 0, got %v", cfg.lease)
	}
	if cfg.lease > 0 && cfg.clusterPeers == "" {
		return cfg, fmt.Errorf("-lease requires -cluster-peers")
	}
	if cfg.heartbeatEvery < 0 {
		return cfg, fmt.Errorf("-heartbeat-every must be >= 0, got %v", cfg.heartbeatEvery)
	}
	if cfg.heartbeatEvery > 0 && cfg.lease == 0 {
		return cfg, fmt.Errorf("-heartbeat-every requires -lease")
	}
	if cfg.heartbeatEvery > 0 && cfg.heartbeatEvery >= cfg.lease {
		return cfg, fmt.Errorf("-heartbeat-every (%v) must be shorter than -lease (%v)", cfg.heartbeatEvery, cfg.lease)
	}
	return cfg, nil
}

// newStore builds the session store the flags describe.
func newStore(cfg config) (store.Store, error) {
	if cfg.storeBackend == "disk" {
		return store.NewDisk(store.DiskOptions{Dir: cfg.dataDir, Fsync: cfg.fsync})
	}
	return store.NewMem(), nil
}

func newServer(cfg config, st store.Store) *server.Server {
	return server.NewWith(server.Config{
		MaxSessions:    cfg.maxSessions,
		IdleTTL:        cfg.sessionTTL,
		MaxBodyBytes:   cfg.maxBodyBytes,
		Store:          st,
		SnapshotEvery:  cfg.snapshotEvery,
		SnapshotMaxAge: cfg.snapshotMaxAge,
	})
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jimserver:", err)
		os.Exit(2)
	}

	st, err := newStore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jimserver:", err)
		os.Exit(1)
	}
	svc := newServer(cfg, st)
	t0 := time.Now()
	restored, err := svc.Restore()
	if err != nil {
		// Partial restores are survivable — the failed sessions are
		// named and everything else is live — but the operator must see
		// it.
		fmt.Fprintln(os.Stderr, "jimserver: restore:", err)
	}
	if cfg.storeBackend != "mem" {
		fmt.Printf("jimserver restored %d sessions from %s (format %s, %.1fms)\n",
			restored, cfg.dataDir, store.FormatV2, float64(time.Since(t0))/float64(time.Millisecond))
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "jimserver: "+format+"\n", args...)
	}

	// Cluster mode: join the static peer set after restore (so the
	// shipper's first resync covers every restored session) and start
	// the replication listener that our predecessor streams into.
	var replSrv *cluster.ReplServer
	if cfg.clusterPeers != "" {
		peers, perr := cluster.ParsePeers(cfg.clusterPeers)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "jimserver:", perr)
			os.Exit(2)
		}
		heartbeat := cfg.heartbeatEvery
		if heartbeat == 0 && cfg.lease > 0 {
			heartbeat = cfg.lease / 4
		}
		if cerr := svc.EnableCluster(server.ClusterOptions{
			Self:           cfg.nodeID,
			Peers:          peers,
			Proxy:          cfg.clusterProxy,
			Logf:           logf,
			Lease:          cfg.lease,
			HeartbeatEvery: heartbeat,
			DetectEvery:    heartbeat,
		}); cerr != nil {
			fmt.Fprintln(os.Stderr, "jimserver:", cerr)
			os.Exit(2)
		}
		if cfg.replAddr != "" {
			ln, lerr := net.Listen("tcp", cfg.replAddr)
			if lerr != nil {
				fmt.Fprintln(os.Stderr, "jimserver:", lerr)
				os.Exit(1)
			}
			replSrv = &cluster.ReplServer{
				Applier:   svc,
				MaxFrame:  int(cfg.maxBodyBytes),
				Logf:      logf,
				Heartbeat: svc.ClusterHeartbeat,
			}
			go func() {
				if serr := replSrv.Serve(ln); serr != nil {
					fmt.Fprintln(os.Stderr, "jimserver: repl listener:", serr)
				}
			}()
			fmt.Printf("jimserver replication listener on %s (node %s)\n", ln.Addr(), cfg.nodeID)
		}
		if cfg.rejoin {
			// If a survivor marked this node failed while it was down,
			// resync the former range from its holder and reclaim it.
			// Runs in the background so the HTTP listener is up before
			// the survivors start redirecting our range back at us.
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				rep, rerr := svc.RejoinCluster(ctx)
				if rerr != nil {
					fmt.Fprintln(os.Stderr, "jimserver: rejoin:", rerr)
					return
				}
				if rep.Rejoined {
					fmt.Printf("jimserver rejoined cluster via %s (%d sessions reclaimed)\n",
						rep.Holder, rep.Reclaimed)
				}
			}()
		}
	}

	// The janitor has work only when sessions expire or when a durable
	// store's age-based snapshot policy is on; a mem-store server with
	// no TTL would tick for nothing.
	if cfg.sessionTTL > 0 || (cfg.storeBackend != "mem" && cfg.snapshotMaxAge > 0) {
		stop := svc.StartJanitor(cfg.sweepEvery)
		defer stop()
	}

	// Bound the pool of scoring helpers all sessions share; 0 keeps the
	// GOMAXPROCS-1 default.
	strategy.SetMaxWorkers(cfg.scoreWorkers)

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}

	// The optional wire listener shares the session table, store, and
	// body cap with the HTTP mux — it is the same server, framed small.
	var ws *wire.Server
	wireDone := make(chan error, 1)
	if cfg.wireAddr != "" {
		ln, err := net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jimserver:", err)
			os.Exit(1)
		}
		ws = &wire.Server{
			Backend:  svc,
			MaxFrame: int(cfg.maxBodyBytes),
			Logf:     logf,
		}
		go func() { wireDone <- ws.Serve(ln) }()
		fmt.Printf("jimserver wire protocol on %s\n", ln.Addr())
	}

	// Drain in-flight requests on SIGINT/SIGTERM — both listeners.
	done := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if ws != nil {
			if werr := ws.Shutdown(ctx); werr != nil {
				fmt.Fprintln(os.Stderr, "jimserver: wire shutdown:", werr)
			}
		}
		done <- srv.Shutdown(ctx)
	}()

	fmt.Printf("jimserver listening on %s (max-sessions=%d, session-ttl=%v, store=%s)\n",
		cfg.addr, cfg.maxSessions, cfg.sessionTTL, cfg.storeBackend)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "jimserver:", err)
		os.Exit(1)
	}
	err = <-done
	if ws != nil {
		if werr := <-wireDone; werr != nil && werr != wire.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "jimserver: wire listener:", werr)
		}
	}
	// Stop accepting replication and flush our own outbound stream so
	// the follower holds everything committed up to shutdown.
	if replSrv != nil {
		replSrv.Close()
	}
	svc.CloseCluster()
	// Graceful shutdown: requests have drained; fold every dirty
	// session into a final snapshot so the next start replays no WAL,
	// then let the store flush.
	if snapErr := svc.SnapshotAll(); snapErr != nil {
		fmt.Fprintln(os.Stderr, "jimserver: shutdown snapshot:", snapErr)
	}
	if closeErr := st.Close(); closeErr != nil {
		fmt.Fprintln(os.Stderr, "jimserver: closing store:", closeErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jimserver: shutdown:", err)
		os.Exit(1)
	}
}
