// Multi-site over real RPC: two Site Managers serve on TCP ports inside
// this process, coordinate scheduling through the Site.SelectHosts
// endpoint, and execute cross-site through Site.RunTask — the same wire
// path as two separate vdce-server processes (see cmd/vdce-server for the
// multi-process variant).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/site"
	"repro/internal/vis"
	"repro/internal/workload"
)

func main() {
	net := netsim.NYNET(0.001) // syracuse–rome–nyc ATM WAN, compressed 1000x

	// Stand up two sites; rome gets the stronger machines.
	syr, err := site.NewManager("syracuse",
		resource.GenerateSite("syracuse", 3, 2, 101), net, nil, site.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rome, err := site.NewManager("rome",
		resource.GenerateSite("rome", 5, 6, 202), net, nil, site.Config{})
	if err != nil {
		log.Fatal(err)
	}
	syr.TickMonitors()
	rome.TickMonitors()

	// rome serves its Host Selection + RunTask endpoints on a real socket.
	addr, stop, err := rome.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	peer := site.NewRemoteSelector("rome", addr)
	defer peer.Close()
	fmt.Printf("rome site serving RPC on %s\n", addr)

	// Submit at syracuse; the scheduler multicasts the AFG to rome over
	// RPC and the runtime forwards remote tasks through Site.RunTask.
	g, err := workload.LinearSolver(nil, 192, 4, false, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, table, err := syr.ExecuteDistributed(context.Background(), g, []*site.RemoteSelector{peer})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nPlacement across sites:")
	remoteTasks := 0
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		marker := ""
		if a.Site == "rome" {
			marker = "  (executed over RPC)"
			remoteTasks++
		}
		fmt.Printf("  %-8s -> %s/%s%s\n", id, a.Site, a.Host, marker)
	}
	fmt.Println()
	fmt.Print(vis.ApplicationPerformance(res))
	fmt.Printf("\n%d of %d tasks ran at the remote site; residual %.3g\n",
		remoteTasks, g.Len(), res.Outputs["check"].Scalar)
}
