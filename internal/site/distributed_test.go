package site

import (
	"context"
	"errors"
	"net/rpc"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/afg"
	"repro/internal/matrix"
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
	// Count the tasks the remote site's own registry runs.
	var remoteRan atomic.Int64
	counting := tasklib.NewRegistry()
	for _, name := range remote.Registry.Names() {
		spec, _ := remote.Registry.Get(name)
		fn := spec.Fn
		spec.Fn = func(ctx context.Context, a tasklib.Args) (tasklib.Value, error) {
			remoteRan.Add(1)
			return fn(ctx, a)
		}
		if err := counting.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	remote.Registry = counting

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
	for _, a := range table.Entries() {
		if a.Site == "rome" {
			usedRemote = true
		}
	}
	if !usedRemote {
		t.Fatalf("remote site never used: %+v", table.Entries())
	}
	if res.Output("solve").Kind != tasklib.KindVector {
		t.Fatalf("solve output = %+v", res.Output("solve"))
	}
	// Remote hosts must have actually executed tasks.
	if remoteRan.Load() == 0 {
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

// TestRunTaskRefusesMisshapenMatrix: a 4x4 matrix input carrying one cell
// is refused when it is decoded, with ErrBadInput, instead of reaching
// matrix.multiply, whose panic inside the RPC handler would kill the peer.
// The peer then still serves a well-formed call.
func TestRunTaskRefusesMisshapenMatrix(t *testing.T) {
	m := newTestSite(t, "rome", 2, 24)
	bad, err := tasklib.MatrixValue(&matrix.Matrix{Rows: 4, Cols: 4, Data: []float64{1}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	good, err := tasklib.MatrixValue(matrix.Identity(4)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	args := RunTaskArgs{Function: "matrix.multiply", Processors: 1, Host: m.Pool.Names()[0], Inputs: [][]byte{bad, good}}
	if err := (&Service{m: m}).RunTask(args, &RunTaskReply{}); !errors.Is(err, tasklib.ErrBadInput) {
		t.Fatalf("in process: err = %v, want ErrBadInput", err)
	}

	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Call("Site.RunTask", args, &RunTaskReply{}); err == nil || !strings.Contains(err.Error(), tasklib.ErrBadInput.Error()) {
		t.Fatalf("over RPC: err = %v, want the ErrBadInput text", err)
	}
	args.Inputs[0] = good
	var reply RunTaskReply
	if err := client.Call("Site.RunTask", args, &reply); err != nil {
		t.Fatalf("well-formed call after the refusal: %v", err)
	}
	out, err := tasklib.DecodeValue(reply.Output)
	if err != nil || !out.Matrix.Equal(matrix.Identity(4), 0) {
		t.Fatalf("I*I = %+v, %v", out.Matrix, err)
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

// A peer must be told apart from every other site by its name, because a
// task assigned to a site runs through the peer of that name: a nameless
// peer, a repeated name and the site's own name are refused before the
// endpoint listens.
func TestServeWithPeersRefusesAmbiguousNames(t *testing.T) {
	m := newTestSite(t, "syracuse", 2, 24)
	for _, names := range [][]string{{""}, {"rome", "rome"}, {"rome", "syracuse"}} {
		var peers []*RemoteSelector
		for _, n := range names {
			peers = append(peers, NewRemoteSelector(n, "127.0.0.1:1"))
		}
		addr, stop, err := m.ServeWithPeers("127.0.0.1:0", peers)
		if err == nil {
			stop()
			t.Fatalf("peers %q: served on %s, want a refusal", names, addr)
		}
		if want := `peer "` + names[len(names)-1] + `"`; !strings.Contains(err.Error(), want) {
			t.Fatalf("peers %q: %v, want it to name %s", names, err, want)
		}
	}
}

// TestRunTaskRefusesHostileMemory: over RPC, a negative memory request is
// refused and claims nothing, so the 1 TB request after it is refused too,
// and the host's memory is all there for a well-formed call.
func TestRunTaskRefusesHostileMemory(t *testing.T) {
	m := newTestSite(t, "rome", 2, 24)
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	h := m.Pool.Hosts()[0]
	free := h.AvailableMemory()
	args := RunTaskArgs{Function: "synthetic.noop", Processors: 1, Host: h.Spec.Name}
	for _, mem := range []int64{-1 << 40, 1 << 40} {
		args.MemReq = mem
		if err := client.Call("Site.RunTask", args, &RunTaskReply{}); err == nil {
			t.Fatalf("memory request %d admitted", mem)
		}
	}
	if err := (&Service{m: m}).RunTask(RunTaskArgs{Host: h.Spec.Name, MemReq: -1}, &RunTaskReply{}); !errors.Is(err, resource.ErrNegativeMemory) {
		t.Fatalf("in process: err = %v, want ErrNegativeMemory", err)
	}
	if got := h.AvailableMemory(); got != free {
		t.Fatalf("available = %d after the refusals, want %d", got, free)
	}
	args.MemReq = free
	if err := client.Call("Site.RunTask", args, &RunTaskReply{}); err != nil {
		t.Fatalf("a request for all free memory: %v", err)
	}
}
