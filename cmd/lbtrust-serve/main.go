// Command lbtrust-serve hosts a trust system as a network service:
// principals connect over the length-prefixed wire protocol of
// internal/server, authenticate with their established RSA keys, and run
// queries (snapshot reads), assertions, says statements, and syncs.
//
//	lbtrust-serve -listen 127.0.0.1:7461 -principals alice,bob -trust-all \
//	    -export-keys ./keys
//	lbtrust-serve -data-dir ./trust.db -listen 127.0.0.1:7461 \
//	    -auto-checkpoint-mb 64 -auto-checkpoint-interval 5m
//
// With -data-dir the served system is durable: every flush is logged,
// automatic checkpoints (size- and/or time-triggered) bound recovery, and
// restarting the server restores the exact pre-crash state — sessions
// re-authenticate with the same keys and see identical query results.
//
// -principals creates the named principals (with RSA identities) if they
// do not exist yet; -export-keys writes each principal's private key DER
// to <dir>/<name>.key (0600) so out-of-process clients can authenticate
// (see `lbtrust -connect`). -anon names a principal whose context answers
// queries from unauthenticated sessions.
//
// Resource governance: -query-gas/-query-timeout and
// -write-gas/-write-timeout/-write-tuples/-write-mem bound what any one
// request may spend evaluating (tripped requests fail with LB-LIMIT-*
// codes and roll back; see docs/DIAGNOSTICS.md), -max-inflight and
// -max-per-principal refuse work beyond the configured concurrency, and
// -idle-timeout reaps stalled or half-open connections.
//
// Observability: -admin-addr starts the operator HTTP endpoint
// (/metrics in Prometheus text format, /healthz, /debug/pprof, and the
// authorization audit ring at /debug/audit) on its own listener and
// instruments every layer of the served system — request counts and
// latency per verb, evaluator gas, workspace flush timings,
// distribution wire traffic, WAL commit latency — plus structured logs
// on stderr (-log-level debug for per-request lines) and a per-request
// trace ID that follows syncs across nodes. -provenance enables
// derivation capture (bounded by -provenance-mem), which the protocol's
// explain verb needs to answer proof trees; -slow-query logs any
// request slower than the threshold with its trace ID, principal, and
// gas spent. See docs/OBSERVABILITY.md. On SIGINT/SIGTERM the server
// drains in-flight requests for up to -shutdown-timeout before closing,
// then flushes the WAL.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lbtrust"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7461", "TCP listen address")
	dataDir := flag.String("data-dir", "", "durable store directory (state survives restarts)")
	fsyncMode := flag.String("fsync", "interval", "WAL fsync policy with -data-dir: always, interval, or off")
	autoMB := flag.Int64("auto-checkpoint-mb", 0, "with -data-dir: checkpoint when the log exceeds this many MiB (0 = off)")
	autoEvery := flag.Duration("auto-checkpoint-interval", 0, "with -data-dir: checkpoint on this interval when the log grew (0 = off)")
	principals := flag.String("principals", "", "comma-separated principals to create (with RSA identities) if missing")
	trustAll := flag.Bool("trust-all", false, "install the says1 trust-all rule in every created principal")
	anon := flag.String("anon", "", "principal context answering unauthenticated queries")
	exportKeys := flag.String("export-keys", "", "write each principal's private key DER to DIR/<name>.key (0600)")
	program := flag.String("program", "", "LBTrust program file loaded into every created principal")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (for scripts using :0)")
	queryGas := flag.Int64("query-gas", 0, "per-query gas budget in evaluation steps (0 = unlimited; trips LB-LIMIT-001)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query wall-clock deadline (0 = none; trips LB-LIMIT-002)")
	writeGas := flag.Int64("write-gas", 0, "per-write flush gas budget in evaluation steps (0 = unlimited)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-write flush wall-clock deadline (0 = none)")
	writeTuples := flag.Int64("write-tuples", 0, "per-write derived-tuple cap (0 = unlimited; trips LB-LIMIT-003)")
	writeMem := flag.Int64("write-mem", 0, "per-write derived-tuple memory cap in bytes (0 = unlimited; trips LB-LIMIT-004)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent heavy requests node-wide (0 = unlimited; refusals get LB-LIMIT-005)")
	maxPerPrin := flag.Int("max-per-principal", 0, "max concurrent heavy requests per principal (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections that do not complete a request frame within this window (0 = never)")
	provEnable := flag.Bool("provenance", false, "capture derivation provenance in every workspace (required by the explain verb)")
	provMem := flag.Int64("provenance-mem", 0, "per-workspace provenance memory cap in bytes (0 = 16 MiB default)")
	slowQuery := flag.Duration("slow-query", 0, "log requests slower than this threshold with trace ID, principal, and gas (0 = off)")
	adminAddr := flag.String("admin-addr", "", "serve /metrics, /healthz, /debug/pprof, and /debug/audit on this address (empty = observability off)")
	adminAddrFile := flag.String("admin-addr-file", "", "write the bound admin address to this file (for scripts using :0)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests to drain")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var bundle *lbtrust.Obs
	var admin *lbtrust.AdminServer
	if *adminAddr != "" {
		reg := lbtrust.NewMetricsRegistry()
		audit := lbtrust.NewAuditLog(0, logger)
		bundle = &lbtrust.Obs{Registry: reg, Log: logger, Tracer: lbtrust.NewTracer(4096), AuditLog: audit}
		var err error
		if admin, err = lbtrust.ServeAdmin(*adminAddr, reg, audit); err != nil {
			return err
		}
		defer admin.Close()
	}

	var sys *lbtrust.System
	if *dataDir != "" {
		policy, err := lbtrust.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		sys, err = lbtrust.OpenSystem(*dataDir, lbtrust.DurableOptions{
			Fsync:                  policy,
			AutoCheckpointBytes:    *autoMB << 20,
			AutoCheckpointInterval: *autoEvery,
		})
		if err != nil {
			return fmt.Errorf("open %s: %w", *dataDir, err)
		}
	} else {
		sys = lbtrust.NewSystem()
	}
	defer func() {
		if err := sys.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close: %v\n", err)
		}
	}()

	var src []byte
	if *program != "" {
		var err error
		if src, err = os.ReadFile(*program); err != nil {
			return err
		}
	}
	for _, name := range strings.Split(*principals, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := sys.Principal(name)
		if !ok {
			var err error
			if p, err = sys.AddPrincipal(name); err != nil {
				return fmt.Errorf("principal %s: %w", name, err)
			}
			if *trustAll {
				if err := p.TrustAll(); err != nil {
					return fmt.Errorf("trust-all for %s: %w", name, err)
				}
			}
			if len(src) > 0 {
				if err := p.LoadProgram(string(src)); err != nil {
					return fmt.Errorf("loading %s into %s: %w", *program, name, err)
				}
			}
		}
		if err := sys.EstablishRSA(name); err != nil {
			return fmt.Errorf("establishing %s: %w", name, err)
		}
	}
	if *exportKeys != "" {
		if err := os.MkdirAll(*exportKeys, 0o700); err != nil {
			return err
		}
		for _, name := range sys.Principals() {
			p, _ := sys.Principal(name)
			der, ok := p.Keys().ExportRSAPrivate(name)
			if !ok {
				continue
			}
			path := filepath.Join(*exportKeys, name+".key")
			if err := os.WriteFile(path, der, 0o600); err != nil {
				return err
			}
		}
	}

	srv, err := lbtrust.Serve(sys, *listen, lbtrust.ServerOptions{
		Anonymous:          *anon,
		QueryLimits:        lbtrust.Limits{Gas: *queryGas, Timeout: *queryTimeout},
		WriteLimits:        lbtrust.Limits{Gas: *writeGas, Timeout: *writeTimeout, Tuples: *writeTuples, MemBytes: *writeMem},
		MaxInflight:        *maxInflight,
		MaxPerPrincipal:    *maxPerPrin,
		IdleTimeout:        *idleTimeout,
		Provenance:         *provEnable,
		ProvenanceMemBytes: *provMem,
		SlowQuery:          *slowQuery,
		Obs:                bundle,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			return err
		}
	}
	if admin != nil {
		logger.Info("admin endpoint up", "addr", admin.Addr())
		if *adminAddrFile != "" {
			if err := os.WriteFile(*adminAddrFile, []byte(admin.Addr()), 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Printf("serving on %s (%d principals)\n", srv.Addr(), len(sys.Principals()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logger.Info("shutting down", "signal", got.String(), "drain_timeout", shutdownTimeout.String())
	if err := srv.Shutdown(*shutdownTimeout); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	// The deferred sys.Close flushes the WAL; closing here too would
	// double-close, so just fall through to the defers.
	return nil
}
