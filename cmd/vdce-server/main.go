// Command vdce-server runs one VDCE site as a standalone process: host
// pool, site repository, Resource Controller (Group Managers + Monitor
// daemons), the Host Selection RPC service, and the distributed submission
// endpoint. Several vdce-server processes on one machine form a
// multi-process VDCE (the paper's Fig 1 on localhost).
//
// Example two-site deployment:
//
//	vdce-server -site syracuse -listen 127.0.0.1:9001 -peers rome=127.0.0.1:9002 &
//	vdce-server -site rome     -listen 127.0.0.1:9002 -peers syracuse=127.0.0.1:9001 &
//	vdce-submit -server 127.0.0.1:9001 -app linsolver -n 128
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/repository"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/site"
)

func main() {
	siteName := flag.String("site", "syracuse", "site name")
	hosts := flag.Int("hosts", 4, "number of simulated hosts at this site")
	listen := flag.String("listen", "127.0.0.1:9001", "RPC listen address")
	peers := flag.String("peers", "", "comma-separated peer sites: name=addr,...")
	period := flag.Duration("monitor-period", 500*time.Millisecond, "monitoring period")
	spread := flag.Float64("spread", 4, "host speed heterogeneity (max/min)")
	seed := flag.Int64("seed", 1, "host generation seed")
	sockets := flag.Bool("sockets", false, "ship inter-task data through TCP proxies")
	threshold := flag.Float64("load-threshold", 0, "QoS load threshold (0 = disabled)")
	repoPath := flag.String("repo", "", "site repository file: loaded at startup if present, saved on shutdown")
	schedWorkers := flag.Int("sched-workers", 0, "scheduling concurrency: site fan-out and batch workers (0 = GOMAXPROCS, 1 = serial)")
	policy := flag.String("policy", "", fmt.Sprintf("default scheduling policy (one of: %s; empty = faithful)", strings.Join(scheduler.Policies(), ", ")))
	flag.Parse()

	if *policy != "" {
		if _, err := scheduler.Lookup(*policy); err != nil {
			log.Fatalf("vdce-server: %v", err)
		}
	}
	pool := resource.GenerateSite(*siteName, *hosts, *spread, *seed)
	net := netsim.NYNET(0.001)
	m, err := site.NewManager(*siteName, pool, net, nil, site.Config{
		UseSockets:           *sockets,
		LoadThreshold:        *threshold,
		SchedulerConcurrency: *schedWorkers,
		Policy:               *policy,
	})
	if err != nil {
		log.Fatalf("vdce-server: %v", err)
	}
	m.RunTrialWeights()
	if *repoPath != "" {
		if saved, err := repository.LoadFile(*repoPath); err == nil {
			// Carry persistent state forward: user accounts and measured
			// task-execution history survive restarts.
			for _, f := range saved.Tasks.Functions() {
				if rec, err := saved.Tasks.Get(f); err == nil {
					m.Repo.Tasks.Put(rec)
				}
			}
			fmt.Printf("vdce-server: restored task history from %s\n", *repoPath)
		} else if !os.IsNotExist(err) {
			log.Printf("vdce-server: repo load: %v", err)
		}
	}

	var remotes []*site.RemoteSelector
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			parts := strings.SplitN(strings.TrimSpace(p), "=", 2)
			if len(parts) != 2 {
				log.Fatalf("vdce-server: bad -peers entry %q (want name=addr)", p)
			}
			remotes = append(remotes, site.NewRemoteSelector(parts[0], parts[1]))
		}
	}

	addr, stop, err := m.ServeWithPeers(*listen, remotes)
	if err != nil {
		log.Fatalf("vdce-server: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.StartMonitors(ctx, *period)

	fmt.Printf("vdce-server: site %s with %d hosts serving on %s\n", *siteName, *hosts, addr)
	for _, h := range pool.Hosts() {
		fmt.Printf("  %-18s %-8s speed %.2fx  mem %dMB\n",
			h.Spec.Name, h.Spec.Arch, h.Spec.SpeedFactor, h.Spec.TotalMemory>>20)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("vdce-server: shutting down")
	if *repoPath != "" {
		if err := m.Repo.SaveFile(*repoPath); err != nil {
			log.Printf("vdce-server: repo save: %v", err)
		} else {
			fmt.Printf("vdce-server: repository saved to %s\n", *repoPath)
		}
	}
	cancel()
	stop()
	for _, r := range remotes {
		r.Close()
	}
}
