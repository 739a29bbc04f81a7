package site

import (
	"context"
	"errors"
	"net/rpc"
	"testing"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/tasklib"
)

// TestExecuteDistributedAcrossRPC wires two site managers through real RPC
// endpoints and forces tasks onto the remote site, exercising the full
// cross-site path: multicast scheduling + RunTask forwarding.
func TestExecuteDistributedAcrossRPC(t *testing.T) {
	local := newTestSite(t, "syracuse", 2, 20)
	remote := newTestSite(t, "rome", 2, 21)
	local.TickMonitors()
	remote.TickMonitors()
	// Make the remote site irresistibly fast in the repositories.
	for _, rec := range remote.Repo.Resources.List() {
		rec.Static.SpeedFactor = 100
		remote.Repo.Resources.Remove(rec.Static.HostName)
		remote.Repo.Resources.Register(rec.Static)
		remote.Repo.Resources.UpdateDynamic(rec.Static.HostName, 0, rec.Static.TotalMemory, rec.Dynamic.UpdatedAt)
	}

	addr, stop, err := remote.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	peer := NewRemoteSelector("rome", addr)
	defer peer.Close()

	res, table, err := local.ExecuteDistributed(context.Background(), solverGraph(t), []*RemoteSelector{peer})
	if err != nil {
		t.Fatal(err)
	}
	usedRemote := false
	for _, a := range table.Entries {
		if a.Site == "rome" {
			usedRemote = true
		}
	}
	if !usedRemote {
		t.Fatalf("remote site never used: %+v", table.Entries)
	}
	if res.Outputs["solve"].Kind != tasklib.KindVector {
		t.Fatalf("solve output = %+v", res.Outputs["solve"])
	}
	// Remote hosts must have actually executed tasks.
	remoteRan := 0
	for _, h := range remote.Pool.Hosts() {
		remoteRan += h.Completed()
	}
	if remoteRan == 0 {
		t.Fatal("no task ran on the remote pool")
	}
}

// TestRPCSubmitDistributed submits through the RPC front door of a site
// configured with a peer.
func TestRPCSubmitDistributed(t *testing.T) {
	local := newTestSite(t, "syracuse", 2, 22)
	remote := newTestSite(t, "rome", 2, 23)
	local.TickMonitors()
	remote.TickMonitors()
	raddr, rstop, err := remote.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rstop()
	peer := NewRemoteSelector("rome", raddr)
	defer peer.Close()
	laddr, lstop, err := local.ServeWithPeers("127.0.0.1:0", []*RemoteSelector{peer})
	if err != nil {
		t.Fatal(err)
	}
	defer lstop()

	client := NewRemoteSelector("syracuse", laddr)
	defer client.Close()
	c, err := client.conn()
	if err != nil {
		t.Fatal(err)
	}
	data, err := solverGraph(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var reply SubmitReply
	if err := c.Call("Site.Submit", SubmitArgs{AFG: data}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Table) != 3 || reply.Outputs["solve"] == "" {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestRunTaskRPCDirect exercises the RunTask endpoint in isolation,
// including its error paths.
func TestRunTaskRPCDirect(t *testing.T) {
	m := newTestSite(t, "rome", 2, 24)
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	peer := NewRemoteSelector("rome", addr)
	defer peer.Close()

	host := m.Pool.Names()[0]
	task := &afg.Task{ID: "g", Function: "matrix.generate",
		Params: map[string]string{"n": "8", "seed": "1"}}
	out, err := peer.RunTask(host, task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != tasklib.KindMatrix || out.Matrix.Rows != 8 {
		t.Fatalf("out = %+v", out)
	}
	// Unknown host fails.
	if _, err := peer.RunTask("ghost", task, nil); err == nil {
		t.Fatal("unknown host accepted")
	}
	// Task error propagates.
	bad := &afg.Task{ID: "b", Function: "matrix.generate",
		Params: map[string]string{"n": "oops"}}
	if _, err := peer.RunTask(host, bad, nil); err == nil {
		t.Fatal("bad params accepted")
	}
}

// TestRefusedCallKeepsSharedConnection: every RunTask of an execution is
// multiplexed on one rpc.Client, so a call the server answers with an error
// must not close it under a call still in flight.
func TestRefusedCallKeepsSharedConnection(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	reg := tasklib.NewRegistry()
	if err := reg.Register(tasklib.Spec{Name: "test.slow", Fn: func(ctx context.Context, _ tasklib.Args) (tasklib.Value, error) {
		close(started)
		<-release
		return tasklib.ScalarValue(42), nil
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager("rome", resource.GenerateSite("rome", 2, 4, 24), netsim.NYNET(0.0001), reg, Config{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	peer := NewRemoteSelector("rome", addr)
	defer peer.Close()

	host := m.Pool.Names()[0]
	slow := &afg.Task{ID: "slow", Function: "test.slow"}
	type outcome struct {
		val tasklib.Value
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := peer.RunTask(host, slow, nil)
		done <- outcome{v, err}
	}()
	<-started
	shared, err := peer.conn()
	if err != nil {
		t.Fatal(err)
	}

	var refused rpc.ServerError
	if _, err := peer.RunTask("ghost", slow, nil); !errors.As(err, &refused) {
		t.Fatalf("unknown host: err = %v, want the server's refusal", err)
	}
	close(release)
	if got := <-done; got.err != nil || got.val.Scalar != 42 {
		t.Fatalf("in-flight call = %+v, %v; want 42 back on the connection the refusal left open", got.val, got.err)
	}
	if again, err := peer.conn(); err != nil || again != shared {
		t.Fatalf("next call would redial (%v): the refusal dropped the shared connection", err)
	}
}
