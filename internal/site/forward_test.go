package site

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/afg"
	"repro/internal/scheduler"
)

// parallelSolverGraph is solverGraph with its factorization split out as a
// two-host parallel task, so a peer's offer for it is a machine set.
func parallelSolverGraph(t testing.TB) *afg.Graph {
	t.Helper()
	g, err := afg.Build("parsolver", []*afg.Task{
		{ID: "genA", Function: "matrix.generate", Params: map[string]string{"n": "16", "seed": "1"}, ComputeCost: 0.01, OutputBytes: 2048},
		{ID: "genB", Function: "matrix.vector", Params: map[string]string{"n": "16", "seed": "2"}, ComputeCost: 0.001, OutputBytes: 128},
		{ID: "lu", Function: "matrix.lu", Mode: afg.Parallel, Processors: 2, ComputeCost: 0.02, OutputBytes: 2048},
		{ID: "solve", Function: "matrix.solve", ComputeCost: 0.01, OutputBytes: 128},
	}, []afg.Link{
		{From: "genA", To: "lu", Bytes: 2048},
		{From: "lu", To: "solve", Bytes: 2048},
		{From: "genB", To: "solve", Bytes: 128, Port: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoSites serves rome at its own endpoint and syracuse with rome as its
// peer, and returns syracuse's manager, a client of syracuse's endpoint,
// syracuse's peer and rome's address.
func twoSites(t *testing.T) (*Manager, *rpc.Client, *RemoteSelector, string) {
	t.Helper()
	local := newTestSite(t, "syracuse", 3, 40)
	raddr, rstop, err := fastRome(t).Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rstop)
	client, peer := submitVia(t, local, raddr)
	return local, client, peer, raddr
}

// fastRome is a three-host site rome whose hosts are fast enough to win
// some tasks from syracuse's.
func fastRome(t *testing.T) *Manager {
	remote := newTestSite(t, "rome", 3, 41)
	remote.TickMonitors()
	for _, rec := range remote.Repo.Resources.List() {
		rec.Static.SpeedFactor *= 3
		remote.Repo.Resources.Remove(rec.Static.HostName)
		remote.Repo.Resources.Register(rec.Static)
		remote.Repo.Resources.UpdateDynamic(rec.Static.HostName, rec.Dynamic.Load, rec.Dynamic.AvailableMemory, rec.Dynamic.UpdatedAt)
	}
	return remote
}

// submitVia serves local with the peer rome at raddr, and returns a client
// of local's endpoint and that peer.
func submitVia(t *testing.T, local *Manager, raddr string) (*rpc.Client, *RemoteSelector) {
	t.Helper()
	local.TickMonitors()
	peer := NewRemoteSelector("rome", raddr)
	t.Cleanup(peer.Close)
	laddr, lstop, err := local.ServeWithPeers("127.0.0.1:0", []*RemoteSelector{peer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lstop)
	client, err := rpc.Dial("tcp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, peer
}

// stubPeer serves a real manager's Site endpoint with its SelectHosts
// handler replaced.
type stubPeer struct {
	*Service
	selectHosts func(SelectArgs, *SelectReply) error
}

func (p stubPeer) SelectHosts(args SelectArgs, reply *SelectReply) error {
	return p.selectHosts(args, reply)
}

// serveStub serves m as the Site endpoint of a stubPeer and returns its
// address.
func serveStub(t *testing.T, m *Manager, selectHosts func(*Service, SelectArgs, *SelectReply) error) string {
	t.Helper()
	svc := &Service{m: m}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Site", stubPeer{svc, func(args SelectArgs, reply *SelectReply) error {
		return selectHosts(svc, args, reply)
	}}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String()
}

// TestSubmitForwardsClientBytes: the peer is asked about the very bytes the
// client submitted, whichever way they were written, and once per
// submission.
func TestSubmitForwardsClientBytes(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	raddr := serveStub(t, fastRome(t), func(s *Service, args SelectArgs, reply *SelectReply) error {
		mu.Lock()
		got = append(got, args.AFG)
		mu.Unlock()
		return s.SelectHosts(args, reply)
	})
	client, _ := submitVia(t, newTestSite(t, "syracuse", 3, 40), raddr)

	g := parallelSolverGraph(t)
	indented, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// An escaped string is off the decoder's fast path: json.Unmarshal reads it.
	escaped := bytes.Replace(indented, []byte(`"matrix.lu"`), []byte(`"matrix\u002elu"`), 1)
	if bytes.Equal(escaped, indented) {
		t.Fatal("no string to escape in the document")
	}
	for i, doc := range [][]byte{indented, compact, escaped} {
		var reply SubmitReply
		if err := client.Call("Site.Submit", SubmitArgs{AFG: doc}, &reply); err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		if len(reply.Table) != g.Len() {
			t.Fatalf("document %d: table = %+v", i, reply.Table)
		}
		mu.Lock()
		n, last := len(got), got[len(got)-1]
		mu.Unlock()
		if n != i+1 || !bytes.Equal(last, doc) {
			t.Fatalf("document %d: the peer was asked %d times, last about\n%s\nwant once more, about the client's\n%s", i, n, last, doc)
		}
	}
}

// TestAbandonedForwardKeepsPeer: a submission refused after its peer was
// asked, for a malformed document or an unknown policy, is refused with the
// error it always had, and the next submission is served over the same peer
// connection.
func TestAbandonedForwardKeepsPeer(t *testing.T) {
	_, client, peer, _ := twoSites(t)
	shared, err := peer.conn()
	if err != nil {
		t.Fatal(err)
	}
	good, err := parallelSolverGraph(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	malformed := good[:len(good)/2]
	_, decodeErr := afg.Decode(malformed)
	_, policyErr := scheduler.Lookup("no-such-policy")
	for _, c := range []struct {
		args SubmitArgs
		want error
	}{
		{SubmitArgs{AFG: malformed}, decodeErr},
		{SubmitArgs{AFG: good, Policy: "no-such-policy"}, policyErr},
	} {
		var reply SubmitReply
		err := client.Call("Site.Submit", c.args, &reply)
		if err == nil || err.Error() != c.want.Error() {
			t.Fatalf("submit refused with %v, want %v", err, c.want)
		}
		if err := client.Call("Site.Submit", SubmitArgs{AFG: good, Policy: "faithful"}, &reply); err != nil {
			t.Fatalf("submission after a refusal: %v", err)
		}
		if reply.Table["lu"].Site != "rome" {
			t.Fatalf("submission after a refusal: lu on %+v, want the peer's offer to win it", reply.Table["lu"])
		}
		if again, err := peer.conn(); err != nil || again != shared {
			t.Fatalf("the peer connection was replaced (%v) after a refused submission", err)
		}
	}
}

// misshapen lists every reply shape choices refuses, each a change to a
// well-formed reply for parallelSolverGraph, whose four tasks rome offers a
// host each and the parallel one two.
var misshapen = map[string]func(*SelectReply){
	"short Pred":        func(r *SelectReply) { r.Pred = r.Pred[1:] },
	"short Span":        func(r *SelectReply) { r.Span = r.Span[:len(r.Span)-1] },
	"Span not from 0":   func(r *SelectReply) { r.Span[0] = 1 },
	"Span past Cols":    func(r *SelectReply) { r.Span[len(r.Span)-1]++ },
	"Span decreasing":   func(r *SelectReply) { r.Span[1] = r.Span[2] + 1 },
	"column past Hosts": func(r *SelectReply) { r.Cols[0] = int32(len(r.Hosts)) },
	"negative column":   func(r *SelectReply) { r.Cols[0] = -1 },
	"unnamed host":      func(r *SelectReply) { r.Hosts[0] = "" },
}

// TestMisshapenReplyDropsPeer: a peer whose reply does not fit the graph is
// dropped as a transient loss, and the submission runs on the local site.
func TestMisshapenReplyDropsPeer(t *testing.T) {
	g := parallelSolverGraph(t)
	for name, mangle := range misshapen {
		t.Run(name, func(t *testing.T) {
			raddr := serveStub(t, fastRome(t), func(s *Service, args SelectArgs, reply *SelectReply) error {
				if err := s.SelectHosts(args, reply); err != nil {
					return err
				}
				if len(reply.Cols) != g.Len()+1 {
					t.Errorf("well-formed reply has %d columns, want one per task and two for lu", len(reply.Cols))
				}
				mangle(reply)
				return nil
			})
			local := newTestSite(t, "syracuse", 3, 40)
			client, peer := submitVia(t, local, raddr)

			policy, err := scheduler.Lookup("faithful")
			if err != nil {
				t.Fatal(err)
			}
			req := scheduler.NewRequest(g, local.Selector, []scheduler.HostSelector{peer}, local.Net)
			req.Diag = &scheduler.Diagnostics{}
			if _, err := policy.Schedule(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if lost := req.Diag.Transient(); len(lost) != 1 || lost[0].Site != "rome" || !errors.Is(lost[0].Err, ErrMisshapenReply) {
				t.Fatalf("transient losses = %v, want rome's misshapen reply", lost)
			}

			data, err := g.Encode()
			if err != nil {
				t.Fatal(err)
			}
			var reply SubmitReply
			if err := client.Call("Site.Submit", SubmitArgs{AFG: data}, &reply); err != nil {
				t.Fatal(err)
			}
			for id, a := range reply.Table {
				if a.Site != "syracuse" {
					t.Fatalf("task %s placed on %+v, a site whose reply was refused", id, a)
				}
			}
		})
	}
}

// FuzzSelectReply: the bytes choose a reply for parallelSolverGraph.
// choices either refuses it with ErrMisshapenReply or names offers that the
// scheduler takes or drops as invalid offers, and nothing panics.
func FuzzSelectReply(f *testing.F) {
	g := parallelSolverGraph(f)
	ids := g.TaskIDs()
	local := newTestSite(f, "syracuse", 3, 40)
	local.TickMonitors()
	policy, err := scheduler.Lookup("faithful")
	if err != nil {
		f.Fatal(err)
	}
	// A well-formed reply: spans of 1, 1, 2 and 1 of three hosts.
	f.Add([]byte{1, 3, 1, 2, 3, 4, 0, 1, 2, 3, 5, 2, 2, 3, 2, 0, 5, 1, 2, 1, 3, 2})
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 0, 2, 3, 4, 4, 5, 6, 7, 5, 1, 1, 2, 1, 5, 0, 1, 1, 1, 0})
	names := []string{"", "rome-node00", "rome-node01", "rome-node02", "syracuse-node00"}
	preds := []float64{0.5, 1, 0, 2.5, -1, math.NaN(), math.Inf(1), 1e-9}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		r := SelectReply{Site: "rome"}
		if next()%8 == 0 {
			r.Site = "paris"
		}
		for k := next() % 5; k > 0; k-- {
			r.Hosts = append(r.Hosts, names[next()%len(names)])
		}
		for k := next() % 6; k > 0; k-- {
			r.Pred = append(r.Pred, preds[next()%len(preds)])
		}
		for k, at := next()%7, int32(0); k > 0; k-- { // steps of -1 to 2
			r.Span = append(r.Span, at)
			at += int32(next()%4) - 1
		}
		for k := next() % 8; k > 0; k-- {
			r.Cols = append(r.Cols, int32(next()%6)-1)
		}
		choices, err := r.choices(ids)
		if err != nil {
			if !errors.Is(err, ErrMisshapenReply) {
				t.Fatalf("reply %+v refused with %v, want ErrMisshapenReply", r, err)
			}
			return
		}
		for id, c := range choices {
			if c.Host == "" || len(c.Hosts) == 0 || c.Hosts[0] != c.Host || slices.Contains(c.Hosts, "") {
				t.Fatalf("reply %+v accepted with choice %s = %+v", r, id, c)
			}
		}
		req := scheduler.NewRequest(g, local.Selector, []scheduler.HostSelector{cannedSelector{"rome", choices}}, local.Net)
		req.Diag = &scheduler.Diagnostics{}
		if _, err := policy.Schedule(context.Background(), req); err != nil {
			t.Fatalf("reply %+v: schedule: %v", r, err)
		}
		for _, lost := range append(req.Diag.Transient(), req.Diag.CannotHost()...) {
			if !errors.Is(lost.Err, scheduler.ErrInvalidOffer) {
				t.Fatalf("reply %+v: choices %+v dropped with %v, want ErrInvalidOffer", r, choices, lost.Err)
			}
		}
	})
}

// cannedSelector answers every ask with the same choices.
type cannedSelector struct {
	site    string
	choices map[afg.TaskID]scheduler.Choice
}

func (c cannedSelector) SiteName() string { return c.site }

func (c cannedSelector) SelectHosts(*afg.Graph) (map[afg.TaskID]scheduler.Choice, error) {
	return c.choices, nil
}

// TestSubmitTablesMatchEncodePath: under every registered policy, the table
// Site.Submit runs is the one SchedulePolicy gives when the peer is asked
// through a plain RemoteSelector, which encodes the graph it is handed.
func TestSubmitTablesMatchEncodePath(t *testing.T) {
	local, client, _, raddr := twoSites(t)
	plain := NewRemoteSelector("rome", raddr)
	t.Cleanup(plain.Close)
	g := parallelSolverGraph(t)
	data, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	remoteSets := 0
	for _, policy := range scheduler.Policies() {
		want, err := local.SchedulePolicy(context.Background(), policy, g, []scheduler.HostSelector{plain})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		var reply SubmitReply
		if err := client.Call("Site.Submit", SubmitArgs{AFG: data, Policy: policy}, &reply); err != nil {
			t.Fatalf("%s: submit: %v", policy, err)
		}
		if !reflect.DeepEqual(reply.Table, want.Entries()) {
			t.Errorf("%s: submitted table\n %+v\nwant\n %+v", policy, reply.Table, want.Entries())
		}
		if a := reply.Table["lu"]; a.Site == "rome" && len(a.Hosts) == 2 {
			remoteSets++
		}
	}
	if remoteSets == 0 {
		t.Fatal("no policy placed the parallel task on a peer's machine set: the peer's offers went untested")
	}
}
