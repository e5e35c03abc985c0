package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/metrics"
)

// coordinatorMain runs skyrand as a cluster coordinator instead of a
// worker daemon: it fronts the given worker addresses, accepts
// campaigns on /v1/campaigns, shards them across the fleet and serves
// the deterministically merged results.
func coordinatorMain(addr string, opts coordinatorOpts) error {
	addrs := splitAddrs(opts.workerAddrs)
	if len(addrs) == 0 {
		return fmt.Errorf("-coordinator requires -worker-addrs (comma-separated worker base URLs)")
	}
	c, err := cluster.New(cluster.Config{
		WorkerAddrs:     addrs,
		AdmitRate:       opts.admitRate,
		AdmitBurst:      opts.admitBurst,
		ProbeEvery:      opts.probeEvery,
		FailAfter:       opts.probeFails,
		ShardSeeds:      opts.shardSeeds,
		CheckpointRoot:  opts.ckptRoot,
		JournalDir:      opts.journalDir,
		JournalRetain:   opts.journalRetain,
		JournalMaxAge:   opts.journalMaxAge,
		BreakerFails:    opts.breakerFails,
		BreakerCooldown: opts.breakerCooldown,
		TimingSeed:      opts.timingSeed,
		NetChaos:        opts.netChaos,
		Registry:        opts.registry,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	fmt.Printf("skyrand: coordinating %d worker(s) on http://%s\n", len(addrs), ln.Addr())
	if opts.ckptRoot != "" {
		fmt.Printf("skyrand: shard checkpoints under %s (shared with workers)\n", opts.ckptRoot)
	}
	if opts.journalDir != "" {
		fmt.Printf("skyrand: campaign journal under %s (crash-recoverable)\n", opts.journalDir)
	}
	if opts.netChaos.Active() {
		fmt.Println("skyrand: network chaos enabled on worker dispatch")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("skyrand: coordinator shutting down")
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(httpCtx)
}

type coordinatorOpts struct {
	workerAddrs     string
	admitRate       float64
	admitBurst      int
	probeEvery      time.Duration
	probeFails      int
	shardSeeds      int
	ckptRoot        string
	journalDir      string
	journalRetain   int
	journalMaxAge   time.Duration
	breakerFails    int
	breakerCooldown time.Duration
	timingSeed      int64
	netChaos        *chaos.NetConfig
	registry        *metrics.Registry
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
