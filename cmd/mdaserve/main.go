// Command mdaserve runs the MDACache simulation service: a long-running HTTP
// daemon that accepts simulation and sweep jobs, enforces per-job budgets,
// sheds load when the queue is full, streams per-run progress, and survives
// crashes — job state and sweep checkpoints live under -state-dir (required),
// and a restarted daemon resumes interrupted jobs exactly where they stopped.
//
// Examples:
//
//	mdaserve -state-dir /var/lib/mdaserve                          # defaults
//	mdaserve -state-dir ./state -addr 127.0.0.1:0                  # any free port
//	mdaserve -state-dir ./state -max-active 2 -workers 4 -max-queue 32
//	mdaserve -state-dir ./state -timeout 5m -max-cycles 2000000000 # default budgets
//
// Every daemon is a fleet member: it registers its bound address under
// <state-dir>/nodes/<node-id>.json (node ID "local" by default), and every job
// holds a lease that its owner renews. A lone daemon is a fleet of one; a
// restart under the same node ID reclaims its jobs at once. Several daemons
// sharing one -state-dir with distinct -node-id values form a work-stealing
// fleet: any peer steals a job whose lease expires, so kill -9 on one node
// means its jobs finish elsewhere, resuming from their checkpoints
// bit-identically:
//
//	mdaserve -state-dir ./state -node-id a -addr 127.0.0.1:8080
//	mdaserve -state-dir ./state -node-id b -addr 127.0.0.1:8081
//	mdaserve -state-dir ./state -node-id c -addr 127.0.0.1:8082
//
// Client mode (-submit/-watch) drives a node list with retry and failover,
// honoring typed Retry-After hints and following stolen jobs to their new
// owners:
//
//	mdaserve -peers http://127.0.0.1:8080,http://127.0.0.1:8081 -submit job.json -wait
//	mdaserve -peers http://127.0.0.1:8080 -watch <id>
//
// Submit work with curl:
//
//	curl -s localhost:8080/jobs -d '{"specs":[{"bench":"sgemm","design":"1P2L"}]}'
//	curl -s localhost:8080/jobs/<id>?wait=10000
//	curl -Ns localhost:8080/jobs/<id>/events
//
// SIGINT/SIGTERM drain gracefully: admission stops, in-flight jobs get
// -drain-timeout to finish, stragglers are checkpointed and their leases
// released, so a peer or the next start picks them up at once.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mdacache/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		stateDir  = flag.String("state-dir", "", "durable job-state directory (required): job records, checkpoints and event logs; a restart on it resumes interrupted jobs")
		maxQueue  = flag.Int("max-queue", 64, "queued-job bound; submissions beyond it get 429")
		maxActive = flag.Int("max-active", 1, "jobs running concurrently")
		workers   = flag.Int("workers", 0, "sweep worker pool per job (0 = GOMAXPROCS)")
		maxCycles = flag.Uint64("max-cycles", 0, "default per-run simulated-cycle budget (0 = unlimited)")
		timeout   = flag.Duration("timeout", 30*time.Minute, "default per-run wall-clock budget")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs before checkpointing them")
		flushN    = flag.Int("flush-every", 1, "runs per checkpoint flush (1 = flush after every run)")

		nodeID = flag.String("node-id", "local", "node identity, registered with the bound address in <state-dir>/nodes/<id>.json; daemons sharing -state-dir with distinct IDs form a work-stealing fleet")
		lease  = flag.Duration("lease", 3*time.Second, "job lease duration; a job whose lease expires is stolen by a peer")
		peers  = flag.String("peers", "", "comma-separated node base URLs for client mode (-submit/-watch)")

		submit  = flag.String("submit", "", "client mode: submit the SubmitRequest JSON in this file (- for stdin) to -peers and print the response")
		wait    = flag.Bool("wait", false, "with -submit: stream events until the job finishes (exit 0 done, 1 failed/cancelled)")
		watchID = flag.String("watch", "", "client mode: stream an existing job's events from -peers until it finishes")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usagef("unexpected arguments: %v", flag.Args())
	}
	if *submit != "" || *watchID != "" {
		if *peers == "" {
			usagef("client mode (-submit/-watch) requires -peers")
		}
		if *submit != "" && *watchID != "" {
			usagef("-submit and -watch are mutually exclusive")
		}
		runClient(*peers, *submit, *watchID, *wait)
		return
	}
	if *stateDir == "" {
		usagef("-state-dir is required")
	}
	if *maxQueue < 1 || *maxActive < 1 {
		usagef("-max-queue and -max-active must be >= 1")
	}
	if *timeout < 0 || *drainFor < 0 {
		usagef("-timeout and -drain-timeout must be non-negative")
	}
	if *lease <= 0 {
		usagef("-lease must be positive")
	}

	// Bind before building the server: it advertises the bound address
	// (meaningful with :0) in the membership directory from the very first
	// heartbeat, which is how clients and tests find a daemon by its state
	// dir alone.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}

	srv, err := serve.New(serve.Options{
		StateDir:          *stateDir,
		MaxQueue:          *maxQueue,
		MaxActive:         *maxActive,
		Workers:           *workers,
		DefaultMaxCycles:  *maxCycles,
		DefaultRunTimeout: *timeout,
		DrainTimeout:      *drainFor,
		FlushEvery:        *flushN,
		NodeID:            *nodeID,
		Advertise:         "http://" + ln.Addr().String(),
		Lease:             *lease,
		Log:               os.Stderr,
	})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("mdaserve: listening on %s\n", ln.Addr())

	// No WriteTimeout: /jobs/{id}/events streams indefinitely and ?wait=
	// long-polls, so handlers own their write deadlines (the events handler
	// sets one per write). Header reads and idle keep-alives are bounded so
	// half-open clients cannot accumulate connections.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "mdaserve: %v: draining\n", sig)
	case err := <-serveErr:
		fatalf("serve: %v", err)
	}

	// Drain: stop taking connections, then let the job layer finish or
	// checkpoint its work. The HTTP server gets a moment beyond the job
	// drain so in-flight status requests complete.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor+10*time.Second)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mdaserve: drain: %v\n", drainErr)
	}
	fmt.Fprintln(os.Stderr, "mdaserve: drained")
}

// runClient is mdaserve's client mode: submit or watch a job against a fleet
// node list, with serve.Client handling retry, backoff and failover. Events
// stream to stdout as NDJSON; the exit status reflects the job's terminal
// state (0 done, 1 failed/cancelled).
func runClient(peers, submitPath, watchID string, wait bool) {
	nodes := strings.Split(peers, ",")
	for i := range nodes {
		nodes[i] = strings.TrimSpace(nodes[i])
		if nodes[i] != "" && !strings.Contains(nodes[i], "://") {
			nodes[i] = "http://" + nodes[i]
		}
	}
	client := &serve.Client{Nodes: nodes, Log: os.Stderr}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	id := watchID
	if submitPath != "" {
		var data []byte
		var err error
		if submitPath == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(submitPath)
		}
		if err != nil {
			fatalf("read submission: %v", err)
		}
		var req serve.SubmitRequest
		if err := json.Unmarshal(data, &req); err != nil {
			fatalf("parse submission: %v", err)
		}
		resp, err := client.Submit(ctx, req)
		if err != nil {
			fatalf("submit: %v", err)
		}
		out, _ := json.Marshal(resp)
		fmt.Println(string(out))
		if !wait {
			return
		}
		id = resp.ID
	}

	var final serve.State
	enc := json.NewEncoder(os.Stdout)
	err := client.Watch(ctx, id, 0, func(ev serve.JobEvent) error {
		if ev.Type == "state" && ev.State.Terminal() {
			final = ev.State
		}
		return enc.Encode(ev)
	})
	if err != nil {
		fatalf("watch %s: %v", id, err)
	}
	if final != serve.StateDone {
		fmt.Fprintf(os.Stderr, "mdaserve: job %s ended %s\n", id, final)
		os.Exit(1)
	}
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdaserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdaserve: "+format+"\n", args...)
	os.Exit(1)
}
