// Command cisgraphd serves a streaming pairwise-analytics graph over HTTP:
// clients POST edge updates, register pairwise queries Q(s→d), and read the
// continuously maintained answers. Updates wait in one ingest queue whose
// whole content is committed as one group (the paper's batch gathering) and
// applied through one multi-query engine; every update is validated by the
// resilience sanitizer and, when configured, logged to a WAL and
// checkpointed, so a SIGTERM drain (or a crash) can be resumed with -resume.
//
// Examples:
//
//	cisgraphd -standin OR -scale 10 -algo PPSP -addr :8372
//	cisgraphd -file graph.el.initial -wal srv.wal -checkpoint srv.ckpt
//	cisgraphd -resume -file graph.el.initial -wal srv.wal -checkpoint srv.ckpt
//
// API:
//
//	POST /v1/updates  {"updates":[{"op":"add","from":0,"to":9,"w":1.5}, ...]}
//	POST /v1/query    {"s":0,"d":9}
//	GET  /v1/answers[?id=N]
//	GET  /healthz
//	GET  /metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cisgraphd:", err)
		os.Exit(1)
	}
}

func run() error {
	// Before anything sizes itself from GOMAXPROCS: admission gets a P of
	// its own beside the engine's budget (server.SizeProcs says why).
	engineCPUs := server.SizeProcs()
	var (
		addr    = flag.String("addr", ":8372", "HTTP listen address")
		binAddr = flag.String("binary-addr", "", "also serve the binary framed ingest protocol (CGBIN/2) on this TCP address, e.g. :8373 (leader only)")
		file    = flag.String("file", "", "initial snapshot edge-list file (.el text, .bel binary)")
		standin = flag.String("standin", "", "serve a generated stand-in dataset instead of -file: OR, LJ or UK")
		scale   = flag.Int("scale", 10, "stand-in dataset scale (log2 base vertex count)")
		algoStr = flag.String("algo", "PPSP", "algorithm: PPSP, PPWP, PPNP, Viterbi or Reach")
		seed    = flag.Int64("seed", 42, "deterministic seed for -standin")

		reqTO    = flag.Duration("request-timeout", 10*time.Second, "per-request handler deadline (503 on overrun)")
		propWork = flag.Int("propagate-workers", 0, "accepted and ignored: every drain is the one serial best-first drain")

		walPath    = flag.String("wal", "", "append every sanitized batch to this segmented write-ahead log directory")
		walSegment = flag.Int64("wal-segment-bytes", 4<<20, "roll the WAL to a new segment at this size")
		ckptPath   = flag.String("checkpoint", "", "write drain (and periodic) checkpoints to this file")
		ckptEvery  = flag.Int("checkpoint-every", 0, "also checkpoint whenever the stream position crosses a multiple of N (0 = drain only)")
		resume     = flag.Bool("resume", false, "restore from -checkpoint and replay the -wal suffix before serving")

		follow       = flag.String("follow", "", "run as a read replica of this leader URL (e.g. http://10.0.0.1:8372): bootstrap from its checkpoint, tail its WAL, refuse writes with 421; with -wal the replica is promotable")
		maxStale     = flag.Duration("max-staleness", 0, "follower degrades (healthz) when its staleness exceeds this (0 = never)")
		replLongPoll = flag.Duration("repl-longpoll", 10*time.Second, "replication tail long-poll window (leader park time / follower request deadline base)")
		replSeed     = flag.Int64("repl-seed", 1, "seed for the follower's reconnect-backoff jitter (reproducible chaos runs)")

		peers        = flag.String("peers", "", "comma-separated base URLs of every cluster node (shared, ordered list; used for failover leader discovery and promotion ranking)")
		advertise    = flag.String("advertise", "", "this node's own base URL as it appears in -peers")
		promoteLoss  = flag.Bool("promote-on-leader-loss", false, "follower watchdog: self-promote (or re-point to a promoted sibling) after the leader is unreachable for -promote-after scaled by peer rank")
		promoteAfter = flag.Duration("promote-after", 2*time.Second, "base leader-loss patience for -promote-on-leader-loss")
		syncFoll     = flag.Int("sync-followers", 0, "gate fast-path acks until this many followers have the commit durable (0 = ack on local fsync)")
		syncAckTO    = flag.Duration("sync-ack-timeout", 5*time.Second, "degrade replication-gated acks after this long without follower coverage")

		queries = flag.String("queries", "", "pre-register comma-separated s:d query pairs (e.g. 3:99,0:7); at most 1024 queries")
	)
	flag.Parse()

	a, err := algo.ByName(*algoStr)
	if err != nil {
		return err
	}
	pre, err := parseQueries(*queries)
	if err != nil {
		return err
	}
	cfg := server.Config{
		RequestTimeout:      *reqTO,
		PropagateWorkers:    *propWork,
		WALPath:             *walPath,
		WALSegmentBytes:     *walSegment,
		CheckpointPath:      *ckptPath,
		CheckpointEvery:     *ckptEvery,
		FollowURL:           *follow,
		MaxStaleness:        *maxStale,
		ReplLongPoll:        *replLongPoll,
		ReplSeed:            *replSeed,
		Peers:               splitPeers(*peers),
		AdvertiseURL:        *advertise,
		PromoteOnLeaderLoss: *promoteLoss,
		PromoteAfter:        *promoteAfter,
		SyncFollowers:       *syncFoll,
		SyncAckTimeout:      *syncAckTO,
	}

	initTopo := func() (*graph.Dynamic, error) {
		switch {
		case *file != "":
			el, err := graph.LoadFile(*file)
			if err != nil {
				return nil, err
			}
			log.Printf("loaded %s: %d vertices, %d edges", el.Name, el.N, len(el.Arcs))
			return graph.FromEdgeList(el), nil
		case *standin != "":
			el, err := graph.StandIn(strings.ToUpper(*standin)).Build(*scale, *seed)
			if err != nil {
				return nil, err
			}
			log.Printf("generated %s: %d vertices, %d edges", el.Name, el.N, len(el.Arcs))
			return graph.FromEdgeList(el), nil
		default:
			return nil, errors.New("one of -file or -standin is required")
		}
	}

	// Epoch-fenced rejoin (DESIGN.md §17): a node configured as leader that
	// finds a peer already serving as leader at a HIGHER epoch than its own
	// durable state was deposed while it was down — starting as leader would
	// split the brain. It starts as a follower of the winner instead.
	if *follow == "" && len(cfg.Peers) > 0 {
		localEpoch := uint64(0)
		if *ckptPath != "" {
			if _, e, _, err := resilience.ReadCheckpointMeta(*ckptPath); err == nil {
				localEpoch = e
			}
		}
		// Unreachable peers are skipped: at boot, being unable to disprove
		// leadership cannot block startup (the epoch fence catches late
		// discoveries).
		if leader, epoch, ok := server.ProbeLeader(cfg.Peers, *advertise); ok && epoch > localEpoch {
			log.Printf("peer %s is leader at epoch %d (ours %d): deposed, rejoining as follower", leader, epoch, localEpoch)
			*follow = leader
			cfg.FollowURL = leader
			*resume = false
		}
	}

	var srv *server.Server
	if *follow != "" {
		if *resume {
			return errors.New("-follow and -resume are mutually exclusive: a follower is stateless and re-bootstraps from the leader")
		}
		if srv, err = server.StartFollower(a, cfg, initTopo); err != nil {
			return err
		}
		log.Printf("following %s: bootstrapped at batch %d, %d queries armed",
			*follow, srv.Applied(), srv.Pool().NumQueries())
	} else if *resume {
		if *ckptPath == "" && *walPath == "" {
			return errors.New("-resume needs -checkpoint and/or -wal to restore from")
		}
		if srv, err = server.Restore(a, cfg, initTopo); err != nil {
			return err
		}
		log.Printf("resumed: %d batches absorbed, %d queries re-armed",
			srv.Applied(), srv.Pool().NumQueries())
	} else {
		g, err := initTopo()
		if err != nil {
			return err
		}
		if srv, err = server.New(g, a, cfg); err != nil {
			return err
		}
	}
	// One locked pass admits and arms the whole list (on top of any
	// restored queries): one cold start per distinct source, no topology
	// clone per query.
	ids, answers, err := srv.Pool().RegisterAll(pre)
	if err != nil {
		return fmt.Errorf("-queries: %w", err)
	}
	for k, q := range pre {
		log.Printf("query %d: Q(%d->%d) initial answer %v", ids[k], q.S, q.D, answers[k])
	}

	// Transport-level timeouts bound slow clients (DESIGN.md §12.3): the
	// handler deadline covers work the server does; these cover bytes the
	// client never sends. Read/Write leave headroom over the handler budget
	// so the deadline's 503 reaches the client before the socket dies.
	writeTO := *reqTO + 5*time.Second
	if *walPath != "" && *replLongPoll+10*time.Second > writeTO {
		// Leaders park follower tail requests for the long-poll window and
		// then stream; the write deadline must outlast both.
		writeTO = *replLongPoll + 10*time.Second
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *reqTO + 5*time.Second,
		WriteTimeout:      writeTO,
		IdleTimeout:       120 * time.Second,
	}
	// Watch streams (/v1/watch SSE) are deliberately unbounded connections;
	// end them as graceful shutdown begins or they would pin Shutdown to its
	// deadline.
	httpSrv.RegisterOnShutdown(srv.CloseWatchers)
	errCh := make(chan error, 1)
	if *binAddr != "" {
		// Followers run the listener too: they answer hellos with NotLeader
		// acks until promoted, at which point the same socket takes writes.
		binLn, err := net.Listen("tcp", *binAddr)
		if err != nil {
			return fmt.Errorf("binary listener: %w", err)
		}
		go func() {
			log.Printf("binary ingest (CGBIN/2) on %s: one WAL record per update, group-committed", *binAddr)
			if err := srv.ServeBinary(binLn); err != nil {
				errCh <- fmt.Errorf("binary ingest: %w", err)
			}
		}()
	}
	go func() {
		log.Printf("cisgraphd serving %s on %s: CPU budget %d (+1 P for admission)", a.Name(), *addr, engineCPUs)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("%v: draining (committing the ingest queue, closing WAL, writing final checkpoint)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained: %d batches applied, %d queries, final answers durable", srv.Applied(), srv.Pool().NumQueries())
	return nil
}

// parseQueries parses the -queries list: comma-separated s:d pairs of
// decimal vertex ids. Empty entries are skipped; anything else malformed is
// an error naming the entry. Whether a pair is admissible (in range, s ≠ d,
// within the query cap) is the query pool's rule, checked at registration.
func parseQueries(raw string) ([]core.Query, error) {
	var qs []core.Query
	for _, pair := range strings.Split(raw, ",") {
		if pair == "" {
			continue
		}
		sd := strings.Split(pair, ":")
		if len(sd) != 2 {
			return nil, fmt.Errorf("bad -queries entry %q: want s:d", pair)
		}
		s, serr := strconv.ParseUint(sd[0], 10, 32)
		d, derr := strconv.ParseUint(sd[1], 10, 32)
		if err := errors.Join(serr, derr); err != nil {
			return nil, fmt.Errorf("bad -queries entry %q: %w", pair, err)
		}
		qs = append(qs, core.Query{S: graph.VertexID(s), D: graph.VertexID(d)})
	}
	return qs, nil
}

// splitPeers parses the shared -peers list, dropping empties so a trailing
// comma is harmless.
func splitPeers(raw string) []string {
	var out []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
