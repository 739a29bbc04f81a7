package site

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/afg"
	"repro/internal/repository"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/tasklib"
)

// Inter-site coordination (paper §2.3.1 "Inter-site Coordination"): the
// local site's Application Scheduler multicasts the application flow graph
// to remote sites, whose Site Managers run the Host Selection Algorithm and
// return the (machine, predicted time) pairs. We carry that exchange over
// net/rpc — the moral equivalent of the paper's Java-servlet site server.

// Service is the RPC surface a Site Manager exposes to peers and clients.
type Service struct {
	m     *Manager
	peers []*RemoteSelector // other sites, for distributed Submit
}

// SelectArgs carries an application flow graph as AFG JSON (the
// editor/site contract). Service.Submit forwards its client's own bytes to
// every peer before it decodes them itself; RemoteSelector.SelectHosts sends
// the encoding of the graph it is asked about.
type SelectArgs struct {
	AFG []byte
}

// SelectReply carries a site's host selection in the graph's dense task
// order, which afg.Decode makes the same at both ends: task t is predicted
// Pred[t] seconds on the hosts Cols[Span[t]:Span[t+1]] index in Hosts, the
// first of them its primary host. A task with an empty span has no offer.
type SelectReply struct {
	Site  string
	Hosts []string
	Pred  []float64
	Span  []int32
	Cols  []int32
}

// ErrMisshapenReply marks a SelectReply whose lengths, offsets or columns do
// not fit the graph asked about, which the scheduler drops for the call, and
// bytes that do not decode to a SubmitReply.
var ErrMisshapenReply = errors.New("site: misshapen reply")

// SelectHosts runs the site's Host Selection Algorithm on the multicast AFG.
func (s *Service) SelectHosts(args SelectArgs, reply *SelectReply) error {
	g, err := afg.Decode(args.AFG)
	if err != nil {
		return err
	}
	choices, err := s.m.Selector.SelectHosts(g)
	if err != nil {
		return err
	}
	ids := g.TaskIDs()
	reply.Site, reply.Pred, reply.Span = s.m.Site, make([]float64, len(ids)), make([]int32, len(ids)+1)
	col := map[string]int32{}
	for t, id := range ids {
		if c, ok := choices[id]; ok {
			reply.Pred[t] = c.Predicted
			for _, h := range c.Hosts {
				if _, seen := col[h]; !seen {
					col[h] = int32(len(reply.Hosts))
					reply.Hosts = append(reply.Hosts, h)
				}
				reply.Cols = append(reply.Cols, col[h])
			}
		}
		reply.Span[t+1] = int32(len(reply.Cols))
	}
	return nil
}

// choices checks the reply against ids, the dense task order of the graph
// asked about, and names its offers by task id.
func (r *SelectReply) choices(ids []afg.TaskID) (map[afg.TaskID]scheduler.Choice, error) {
	n := len(ids)
	ok := len(r.Pred) == n && len(r.Span) == n+1 && r.Span[0] == 0 && int(r.Span[n]) == len(r.Cols) && !slices.Contains(r.Hosts, "")
	for t := 0; ok && t < n; t++ {
		ok = r.Span[t] <= r.Span[t+1]
	}
	names := make([]string, len(r.Cols))
	for k, c := range r.Cols {
		if ok = ok && c >= 0 && int(c) < len(r.Hosts); ok {
			names[k] = r.Hosts[c]
		}
	}
	if !ok {
		return nil, fmt.Errorf("%w from site %s: %d hosts, %d predictions, %d offsets and %d columns for %d tasks",
			ErrMisshapenReply, r.Site, len(r.Hosts), len(r.Pred), len(r.Span), len(r.Cols), n)
	}
	out := make(map[afg.TaskID]scheduler.Choice, n)
	for t, id := range ids {
		if lo, hi := r.Span[t], r.Span[t+1]; lo < hi {
			out[id] = scheduler.Choice{Site: r.Site, Host: names[lo], Hosts: names[lo:hi:hi], Predicted: r.Pred[t]}
		}
	}
	return out, nil
}

// PoliciesArgs is empty; PoliciesReply lists the registered policy names.
type PoliciesArgs struct{}

// PoliciesReply carries the registry contents (sorted).
type PoliciesReply struct{ Names []string }

// Policies reports the scheduling policies this site can run, so clients
// can validate -policy values before submitting.
func (s *Service) Policies(_ PoliciesArgs, reply *PoliciesReply) error {
	reply.Names = scheduler.Policies()
	return nil
}

// AuthArgs is a user/password pair.
type AuthArgs struct{ User, Password string }

// AuthReply returns the authenticated account.
type AuthReply struct{ Account repository.UserAccount }

// Authenticate validates a user against the site's user-accounts database.
func (s *Service) Authenticate(args AuthArgs, reply *AuthReply) error {
	acct, err := s.m.Authenticate(args.User, args.Password)
	if err != nil {
		return err
	}
	reply.Account = acct
	return nil
}

// ResourcesArgs is empty; ResourcesReply lists the site's resource records.
type ResourcesArgs struct{}

// ResourcesReply carries the resource-performance database contents.
type ResourcesReply struct{ Records []repository.ResourceRecord }

// Resources dumps the site's resource-performance database (workload
// visualization feeds from this).
func (s *Service) Resources(_ ResourcesArgs, reply *ResourcesReply) error {
	reply.Records = s.m.Repo.Resources.List()
	return nil
}

// RunTaskArgs carries one task invocation for cross-site execution: the
// local site's Application Controller forwards a task assigned to a remote
// host to that host's Site Manager.
type RunTaskArgs struct {
	Function   string
	Params     map[string]string
	Processors int
	Host       string
	MemReq     int64
	Inputs     [][]byte // encoded tasklib.Values in parent order
}

// RunTaskReply returns the encoded output value.
type RunTaskReply struct {
	Output []byte
}

// RunTask executes one library task on a named local host (the remote half
// of the cross-site execution path).
func (s *Service) RunTask(args RunTaskArgs, reply *RunTaskReply) error {
	h := s.m.Pool.Get(args.Host)
	if h == nil {
		return fmt.Errorf("site %s: unknown host %q", s.m.Site, args.Host)
	}
	if err := h.BeginTask(args.MemReq); err != nil {
		return err
	}
	defer h.EndTask(args.MemReq)
	inputs := make([]tasklib.Value, len(args.Inputs))
	for i, raw := range args.Inputs {
		v, err := tasklib.DecodeValue(raw)
		if err != nil {
			return err
		}
		inputs[i] = v
	}
	out, err := s.m.Registry.Execute(context.Background(), args.Function, tasklib.Args{
		Params: args.Params, Inputs: inputs, Processors: args.Processors,
	})
	if err != nil {
		return err
	}
	data, err := out.Encode()
	if err != nil {
		return err
	}
	reply.Output = data
	return nil
}

// SubmitArgs carries an application for scheduling + local execution.
// Policy optionally names the scheduling policy ("" = site default).
type SubmitArgs struct {
	AFG    []byte
	Policy string
}

// SubmitReply summarises the execution. It goes over the wire in its own
// binary layout (reply.go), not field by field.
type SubmitReply struct {
	Table       map[afg.TaskID]scheduler.Assignment
	MakespanSec float64
	Rescheduled int
	Outputs     map[afg.TaskID]string // rendered exit outputs
}

// Submit schedules an application across this site and its configured
// peers, executing local tasks directly and remote tasks through the
// owning site's RunTask endpoint (cmd/vdce-submit's entry point).
//
//vdce:ignore detflow the reply reports a real execution: measured elapsed runtime and observed reschedules, not schedule decisions
func (s *Service) Submit(args SubmitArgs, reply *SubmitReply) error {
	// Every peer decodes and walks the client's bytes while this site
	// decodes them. A call no policy takes is left to finish unread.
	asked := make([]*forwarded, len(s.peers))
	for i, p := range s.peers {
		asked[i] = p.forward(args.AFG)
	}
	g, err := afg.Decode(args.AFG)
	if err != nil {
		return err
	}
	remotes := make([]scheduler.HostSelector, len(asked))
	for i, f := range asked {
		f.g, remotes[i] = g, f
	}
	res, table, err := s.m.executeDistributed(context.Background(), g, s.peers, remotes, args.Policy)
	if err != nil {
		return err
	}
	reply.Table = table.Entries()
	reply.MakespanSec = res.Makespan.Seconds()
	reply.Rescheduled = res.Rescheduled
	reply.Outputs = map[afg.TaskID]string{}
	for id, v := range runtime.ExitOutputs(g, res) { // keep the reply compact: exits only
		reply.Outputs[id] = renderValue(v)
	}
	return nil
}

// Serve starts the site's RPC endpoint on addr ("127.0.0.1:0" for an
// ephemeral port). It returns the bound address and a shutdown function
// that closes the listener and every connection accepted from it.
func (m *Manager) Serve(addr string) (string, func(), error) {
	return m.ServeWithPeers(addr, nil)
}

// ServeWithPeers starts the RPC endpoint with a set of peer sites used for
// distributed scheduling/execution of submitted applications. Each peer
// needs a name of its own, neither empty nor this site's: a task runs
// through the peer its table row's site names.
func (m *Manager) ServeWithPeers(addr string, peers []*RemoteSelector) (string, func(), error) {
	for i, p := range peers {
		if p.Name == "" || p.Name == m.Site || slices.ContainsFunc(peers[:i], func(o *RemoteSelector) bool { return o.Name == p.Name }) {
			return "", nil, fmt.Errorf("site: peer %q at %s: a peer needs a name of its own", p.Name, p.Addr)
		}
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Site", &Service{m: m, peers: peers}); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("site: listen %s: %w", addr, err)
	}
	var mu sync.Mutex
	var conns []net.Conn // accepted and still served
	stopped := false
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if stopped { // accepted as stop ran
				mu.Unlock()
				conn.Close()
				return
			}
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				srv.ServeConn(conn)
				mu.Lock()
				conns = slices.DeleteFunc(conns, func(c net.Conn) bool { return c == conn })
				mu.Unlock()
			}()
		}
	}()
	// stop shuts the site down for clients too: an already-dialled client's
	// next call fails instead of being served by a site that "stopped".
	stop := func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		for _, conn := range conns {
			conn.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}

// RemoteSelector makes a remote site's Host Selection service usable as a
// scheduler.HostSelector: the multicast step of the Site Scheduler
// Algorithm becomes an RPC to each neighbour.
type RemoteSelector struct {
	Name string // remote site name
	Addr string // RPC endpoint

	mu     sync.Mutex
	client *rpc.Client
}

// NewRemoteSelector returns a lazy-dialling remote selector.
func NewRemoteSelector(name, addr string) *RemoteSelector {
	return &RemoteSelector{Name: name, Addr: addr}
}

// SiteName implements scheduler.HostSelector.
func (r *RemoteSelector) SiteName() string { return r.Name }

// SelectHosts implements scheduler.HostSelector over RPC: the peer is sent
// g's encoding.
func (r *RemoteSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]scheduler.Choice, error) {
	data, err := g.Encode()
	if err != nil {
		return nil, err
	}
	f := r.forward(data)
	f.g = g
	return f.SelectHosts(g)
}

// forward starts the peer's Site.SelectHosts call on AFG bytes.
func (r *RemoteSelector) forward(data []byte) *forwarded {
	f := &forwarded{RemoteSelector: r}
	if f.client, f.err = r.conn(); f.err == nil {
		f.call = f.client.Go("Site.SelectHosts", SelectArgs{AFG: data}, &f.reply, make(chan *rpc.Call, 1))
	}
	return f
}

// forwarded is a peer with a Site.SelectHosts call in flight on AFG bytes.
// The first ask about g, the graph those bytes decode to, takes that call's
// reply; any other ask is a plain RemoteSelector.SelectHosts.
type forwarded struct {
	*RemoteSelector
	g      *afg.Graph
	taken  atomic.Bool
	client *rpc.Client
	call   *rpc.Call // nil when dialling failed with err
	err    error
	reply  SelectReply
}

// SelectHosts implements scheduler.HostSelector.
func (f *forwarded) SelectHosts(g *afg.Graph) (map[afg.TaskID]scheduler.Choice, error) {
	if g != f.g || f.taken.Swap(true) {
		return f.RemoteSelector.SelectHosts(g)
	}
	if f.call == nil {
		return nil, f.err
	}
	if err := (<-f.call.Done).Error; err != nil {
		f.dropConn(f.client, err)
		return nil, fmt.Errorf("site: remote %s: %w", f.Name, err)
	}
	return f.reply.choices(g.TaskIDs())
}

// RunTask executes one task on a remote site's host over RPC (the client
// half of the cross-site execution path).
func (r *RemoteSelector) RunTask(host string, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error) {
	encoded := make([][]byte, len(inputs))
	for i, v := range inputs {
		data, err := v.Encode()
		if err != nil {
			return tasklib.Value{}, err
		}
		encoded[i] = data
	}
	procs := 1
	if task.Mode == afg.Parallel {
		procs = task.Processors
	}
	client, err := r.conn()
	if err != nil {
		return tasklib.Value{}, err
	}
	var reply RunTaskReply
	err = client.Call("Site.RunTask", RunTaskArgs{
		Function:   task.Function,
		Params:     task.Params,
		Processors: procs,
		Host:       host,
		MemReq:     task.MemReq,
		Inputs:     encoded,
	}, &reply)
	if err != nil {
		r.dropConn(client, err)
		return tasklib.Value{}, fmt.Errorf("site: remote run on %s/%s: %w", r.Name, host, err)
	}
	return tasklib.DecodeValue(reply.Output)
}

func (r *RemoteSelector) conn() (*rpc.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client != nil {
		return r.client, nil
	}
	c, err := rpc.Dial("tcp", r.Addr)
	if err != nil {
		return nil, fmt.Errorf("site: dial %s (%s): %w", r.Name, r.Addr, err)
	}
	r.client = c
	return c, nil
}

// dropConn closes the shared connection after a call on it failed with err,
// unless err is the remote handler's own refusal (an rpc.ServerError): that
// arrived over a healthy connection every concurrent call of the execution
// is multiplexed on, and closing it would fail them all with ErrShutdown.
func (r *RemoteSelector) dropConn(c *rpc.Client, err error) {
	var refused rpc.ServerError
	if errors.As(err, &refused) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == c {
		r.client.Close()
		r.client = nil
	}
}

// Close shuts the cached connection.
func (r *RemoteSelector) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client != nil {
		r.client.Close()
		r.client = nil
	}
}

var _ scheduler.HostSelector = (*RemoteSelector)(nil)
