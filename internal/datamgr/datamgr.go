// Package datamgr implements the VDCE Data Manager (paper §2.3.2): a
// socket-based, point-to-point communication system for inter-task
// communication. Each task gets a *communication proxy* that listens for
// inbound channels and dials outbound ones; after channel setup completes
// the proxy acknowledges to the Application Controller, which releases the
// execution startup signal (Fig 7). In the thread-based configuration each
// proxy runs a receive goroutine per inbound socket and the compute
// goroutine consumes from a merged inbound queue — the paper's send,
// receive, and compute threads.
//
// A frame is a 4-byte big-endian length, then the sender, receiver and
// sequence number in a fixed big-endian layout, then the payload as raw
// bytes: an encoded tasklib Value, itself big-endian throughout. Fixing the
// byte order on the wire is the "data conversion" the paper requires for
// heterogeneous machines.
package datamgr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// Message is one inter-task data frame.
type Message struct {
	From    string // sending task id
	To      string // receiving task id
	Seq     int    // per-channel sequence number
	Payload []byte // encoded tasklib.Value
}

// Common errors.
var (
	ErrClosed      = errors.New("datamgr: proxy closed")
	ErrUnknownPeer = errors.New("datamgr: unknown peer")
	ErrFrameTooBig = errors.New("datamgr: frame exceeds limit")
)

// MaxFrameBytes bounds a single frame (defensive against corrupt headers).
const MaxFrameBytes = 1 << 30

// writeFrame emits one message, a single writev on a TCP connection, with
// the payload not copied: a 4-byte big-endian body length, then the body,
// laid out as
//
//	from     u32 length, then its bytes
//	to       u32 length, then its bytes
//	seq      i64
//	payload  every byte to the end of the body
//
// with every number big-endian.
func writeFrame(w io.Writer, m Message) error {
	n := 4 + len(m.From) + 4 + len(m.To) + 8 + len(m.Payload)
	if n > MaxFrameBytes {
		return ErrFrameTooBig
	}
	head := make([]byte, 0, 4+n-len(m.Payload))
	head = binary.BigEndian.AppendUint32(head, uint32(n))
	head = wire.AppendString(head, m.From)
	head = wire.AppendString(head, m.To)
	head = binary.BigEndian.AppendUint64(head, uint64(m.Seq))
	bufs := net.Buffers{head, m.Payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one message written by writeFrame.
func readFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return Message{}, ErrFrameTooBig
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	d := wire.NewReader(body, "datamgr: decode frame", errShortFrame)
	m := Message{From: d.Str(), To: d.Str(), Seq: int(int64(d.U64()))}
	if body = d.Rest(); len(body) > 0 {
		m.Payload = body
	}
	if err := d.Err(); err != nil {
		return Message{}, err
	}
	return m, nil
}

var errShortFrame = errors.New("datamgr: body shorter than its fields")

// PeerInfo is the channel-setup information the Data Manager distributes:
// "the socket number, IP address for target machine, etc." (§2.3.2).
type PeerInfo struct {
	Task string // peer task id
	Addr string // host:port of the peer's proxy listener
	Site string // peer's VDCE site, for WAN delay injection
}

// Proxy is one task's communication proxy.
type Proxy struct {
	task string
	site string
	net  *netsim.Network

	ln      net.Listener
	inbound chan Message
	quit    chan struct{}

	mu     sync.Mutex
	outs   map[string]*outChannel // guarded by mu
	ins    []net.Conn             // accepted connections, closed on shutdown; guarded by mu
	peers  map[string]PeerInfo    // guarded by mu
	seq    map[string]int         // guarded by mu
	closed bool                   // guarded by mu
	wg     sync.WaitGroup

	stats Stats // guarded by mu
}

type outChannel struct {
	conn net.Conn
	mu   sync.Mutex
}

// Stats counts proxy traffic.
type Stats struct {
	Sent, Received       int
	BytesSent, BytesRecv int64
}

// NewProxy creates a proxy for the given task, listening on a fresh
// loopback TCP port. nw may be nil (no WAN delay injection).
func NewProxy(task, site string, nw *netsim.Network) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("datamgr: listen: %w", err)
	}
	p := &Proxy{
		task:    task,
		site:    site,
		net:     nw,
		ln:      ln,
		inbound: make(chan Message, 256),
		quit:    make(chan struct{}),
		outs:    make(map[string]*outChannel),
		peers:   make(map[string]PeerInfo),
		seq:     make(map[string]int),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Task returns the owning task id.
func (p *Proxy) Task() string { return p.task }

// Addr returns the proxy's listen address for PeerInfo distribution.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.ins = append(p.ins, conn)
		p.mu.Unlock()
		p.wg.Add(1)
		go p.recvLoop(conn)
	}
}

// recvLoop is the paper's "receive thread": one per inbound socket, feeding
// the shared inbound queue the compute goroutine reads.
func (p *Proxy) recvLoop(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	for {
		m, err := readFrame(conn)
		if err != nil {
			return
		}
		p.mu.Lock()
		closed := p.closed
		if !closed {
			p.stats.Received++
			p.stats.BytesRecv += int64(len(m.Payload))
		}
		p.mu.Unlock()
		if closed {
			return
		}
		select {
		case p.inbound <- m:
		case <-p.quit:
			return
		}
	}
}

// ConnectTo establishes the outbound channel to a peer proxy (the Fig 7
// "Requesting the Communication Channel Setup" step). It is idempotent.
func (p *Proxy) ConnectTo(peer PeerInfo) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if _, ok := p.outs[peer.Task]; ok {
		p.mu.Unlock()
		return nil
	}
	p.peers[peer.Task] = peer
	p.mu.Unlock()

	conn, err := net.Dial("tcp", peer.Addr)
	if err != nil {
		return fmt.Errorf("datamgr: dial %s (%s): %w", peer.Task, peer.Addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return ErrClosed
	}
	p.outs[peer.Task] = &outChannel{conn: conn}
	return nil
}

// Send ships a payload to the named peer task over its established channel,
// injecting the modelled WAN delay for cross-site sends (the "send thread").
func (p *Proxy) Send(target string, payload []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	out, ok := p.outs[target]
	peer := p.peers[target]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPeer, target)
	}
	p.seq[target]++
	seq := p.seq[target]
	p.stats.Sent++
	p.stats.BytesSent += int64(len(payload))
	p.mu.Unlock()

	if p.net != nil && peer.Site != "" && peer.Site != p.site {
		p.net.InjectDelay(p.site, peer.Site, int64(len(payload)))
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	return writeFrame(out.conn, Message{From: p.task, To: target, Seq: seq, Payload: payload})
}

// Recv returns the next inbound message; ok=false after Close drains.
func (p *Proxy) Recv() (Message, bool) {
	m, ok := <-p.inbound
	return m, ok
}

// Stats returns a copy of the traffic counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close tears down the listener and all channels.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	outs := p.outs
	p.outs = map[string]*outChannel{}
	ins := p.ins
	p.ins = nil
	p.mu.Unlock()

	close(p.quit)
	p.ln.Close()
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		outs[name].conn.Close()
	}
	for _, c := range ins {
		c.Close()
	}
	p.wg.Wait()
	close(p.inbound)
}
