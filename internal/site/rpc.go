package site

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"sync"

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

// SelectArgs carries a JSON-encoded application flow graph (JSON because the
// AFG wire format is the editor/site contract).
type SelectArgs struct {
	AFG []byte
}

// SelectReply returns the host selection for every task.
type SelectReply struct {
	Site    string
	Choices map[afg.TaskID]scheduler.Choice
}

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
	reply.Site = s.m.Site
	reply.Choices = choices
	return nil
}

// BatchArgs carries many JSON-encoded application flow graphs for
// concurrent scheduling against this site and its configured peers.
// Policy selects the scheduling policy by registry name ("" = the site's
// configured default); SharedLedger threads a cross-application load ledger
// through the batch so its graphs spread around each other's in-flight
// placements.
type BatchArgs struct {
	AFGs         [][]byte
	Policy       string
	SharedLedger bool
	Seed         int64 // feeds the randomized policies ("random")
}

// BatchReply returns one allocation table (or error string) per input AFG,
// in input order. Exactly one of Tables[i]/Errs[i] is non-zero. Orders[i]
// carries the table's assignment order (lost by the bare entries map);
// scheduler.RebuildTable(app, Tables[i], Orders[i]) reconstructs the full
// ordered table client-side.
type BatchReply struct {
	Tables []map[afg.TaskID]scheduler.Assignment
	Orders [][]afg.TaskID
	Errs   []string
}

// ScheduleBatch schedules a batch of applications concurrently against
// shared site state (the scheduler.Batch API over RPC). It returns the
// allocation tables only — execution stays with the caller, which lets a
// client probe placements for many candidate applications in one round
// trip. Failures are per item — a graph that does not decode or schedule
// reports through Errs[i] without sinking the rest of the batch — except an
// unknown policy name, which fails the whole call with the registry's
// error listing the available policies.
func (s *Service) ScheduleBatch(args BatchArgs, reply *BatchReply) error {
	reply.Tables = make([]map[afg.TaskID]scheduler.Assignment, len(args.AFGs))
	reply.Orders = make([][]afg.TaskID, len(args.AFGs))
	reply.Errs = make([]string, len(args.AFGs))
	var graphs []*afg.Graph
	var indices []int // position of graphs[j] in the reply
	for i, raw := range args.AFGs {
		g, err := afg.Decode(raw)
		if err != nil {
			reply.Errs[i] = fmt.Sprintf("site: batch graph %d: %v", i, err)
			continue
		}
		graphs = append(graphs, g)
		indices = append(indices, i)
	}
	var remotes []scheduler.HostSelector
	for _, p := range s.peers {
		remotes = append(remotes, p)
	}
	items, err := s.m.ScheduleBatchOpts(graphs, remotes, BatchOptions{
		Policy:       args.Policy,
		SharedLedger: args.SharedLedger,
		Seed:         args.Seed,
	})
	if err != nil {
		return err
	}
	for j, it := range items {
		i := indices[j]
		if it.Err != nil {
			reply.Errs[i] = it.Err.Error()
			continue
		}
		reply.Tables[i] = it.Table.Entries
		reply.Orders[i] = it.Table.Order()
	}
	return nil
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

// SubmitReply summarises the execution.
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
	g, err := afg.Decode(args.AFG)
	if err != nil {
		return err
	}
	res, table, err := s.m.ExecuteDistributedPolicy(context.Background(), g, s.peers, args.Policy)
	if err != nil {
		return err
	}
	reply.Table = table.Entries
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
// distributed scheduling/execution of submitted applications.
func (m *Manager) ServeWithPeers(addr string, peers []*RemoteSelector) (string, func(), error) {
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

// SelectHosts implements scheduler.HostSelector over RPC.
func (r *RemoteSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]scheduler.Choice, error) {
	data, err := g.Encode()
	if err != nil {
		return nil, err
	}
	client, err := r.conn()
	if err != nil {
		return nil, err
	}
	var reply SelectReply
	if err := client.Call("Site.SelectHosts", SelectArgs{AFG: data}, &reply); err != nil {
		r.dropConn(client, err)
		return nil, fmt.Errorf("site: remote %s: %w", r.Name, err)
	}
	return reply.Choices, nil
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
