package datamgr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

func newTestProxy(t *testing.T, task, site string, nw *netsim.Network) *Proxy {
	t.Helper()
	p, err := NewProxy(task, site, nw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func connect(t *testing.T, from, to *Proxy) {
	t.Helper()
	err := from.ConnectTo(PeerInfo{Task: to.Task(), Addr: to.Addr(), Site: "syr"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{From: "a", To: "b", Seq: 3, Payload: []byte("hello")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.From != "a" || out.To != "b" || out.Seq != 3 || string(out.Payload) != "hello" {
		t.Fatalf("out = %+v", out)
	}
}

// TestReadFrameRejectsShortBody: a body too short for the sender, receiver
// and sequence number its own prefixes announce is an error, not a panic.
func TestReadFrameRejectsShortBody(t *testing.T) {
	var full bytes.Buffer
	if err := writeFrame(&full, Message{From: "a", To: "bc", Seq: 7}); err != nil {
		t.Fatal(err)
	}
	body := full.Bytes()[4:]
	for n := range len(body) {
		frame := binary.BigEndian.AppendUint32(nil, uint32(n))
		if _, err := readFrame(bytes.NewReader(append(frame, body[:n]...))); !errors.Is(err, errShortFrame) {
			t.Errorf("body cut to %d of %d bytes: err = %v, want errShortFrame", n, len(body), err)
		}
	}
	lying := append(binary.BigEndian.AppendUint32(nil, 8), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	if _, err := readFrame(bytes.NewReader(lying)); !errors.Is(err, errShortFrame) {
		t.Errorf("sender length past the body: err = %v, want errShortFrame", err)
	}
}

// BenchmarkFrameRoundTrip times one writeFrame and readFrame of a payload
// the size of an encoded scalar and of an encoded 64x64 matrix.
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, size := range []int{32, 32_800} {
		m := Message{From: "lu", To: "solve", Seq: 1, Payload: make([]byte, size)}
		b.Run(fmt.Sprintf("payload%d", size), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for range b.N {
				buf.Reset()
				if err := writeFrame(&buf, m); err != nil {
					b.Fatal(err)
				}
				if _, err := readFrame(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestReadFrameRejectsHugeHeader(t *testing.T) {
	buf := bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
	if _, err := readFrame(buf); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestProxySendRecv(t *testing.T) {
	a := newTestProxy(t, "taskA", "syr", nil)
	b := newTestProxy(t, "taskB", "syr", nil)
	connect(t, a, b)
	if err := a.Send("taskB", []byte("payload-1")); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if m.From != "taskA" || string(m.Payload) != "payload-1" || m.Seq != 1 {
		t.Fatalf("m = %+v", m)
	}
}

func TestProxySequenceNumbers(t *testing.T) {
	a := newTestProxy(t, "a", "syr", nil)
	b := newTestProxy(t, "b", "syr", nil)
	connect(t, a, b)
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		m, ok := b.Recv()
		if !ok || m.Seq != i {
			t.Fatalf("seq = %d (ok=%v), want %d", m.Seq, ok, i)
		}
	}
}

func TestProxyFanIn(t *testing.T) {
	// Matrix Inversion on two machines feeding Matrix Mult (paper Fig 7):
	// many senders, one receiver, single inbound queue.
	recv := newTestProxy(t, "mult", "syr", nil)
	s1 := newTestProxy(t, "inv1", "syr", nil)
	s2 := newTestProxy(t, "inv2", "syr", nil)
	connect(t, s1, recv)
	connect(t, s2, recv)
	if err := s1.Send("mult", []byte("from-1")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Send("mult", []byte("from-2")); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		m, ok := recv.Recv()
		if !ok {
			t.Fatal("recv closed early")
		}
		got[m.From] = true
	}
	if !got["inv1"] || !got["inv2"] {
		t.Fatalf("senders = %v", got)
	}
}

func TestProxySendUnknownPeer(t *testing.T) {
	a := newTestProxy(t, "a", "syr", nil)
	if err := a.Send("ghost", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
}

func TestProxyConnectIdempotent(t *testing.T) {
	a := newTestProxy(t, "a", "syr", nil)
	b := newTestProxy(t, "b", "syr", nil)
	connect(t, a, b)
	connect(t, a, b) // second call is a no-op
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.Recv(); !ok || string(m.Payload) != "x" {
		t.Fatalf("m = %+v ok=%v", m, ok)
	}
}

func TestProxyCloseRejectsOperations(t *testing.T) {
	a, err := NewProxy("a", "syr", nil)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestProxy(t, "b", "syr", nil)
	connect(t, a, b)
	a.Close()
	a.Close() // double close is safe
	if err := a.Send("b", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := a.ConnectTo(PeerInfo{Task: "b", Addr: b.Addr()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := a.Recv(); ok {
		t.Fatal("recv on closed proxy should drain to not-ok")
	}
}

func TestProxyConnectDialError(t *testing.T) {
	a := newTestProxy(t, "a", "syr", nil)
	// Grab a port and close it so the dial fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := a.ConnectTo(PeerInfo{Task: "dead", Addr: addr}); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestProxyStats(t *testing.T) {
	a := newTestProxy(t, "a", "syr", nil)
	b := newTestProxy(t, "b", "syr", nil)
	connect(t, a, b)
	payload := bytes.Repeat([]byte("z"), 1000)
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv")
	}
	as, bs := a.Stats(), b.Stats()
	if as.Sent != 1 || as.BytesSent != 1000 {
		t.Fatalf("a stats = %+v", as)
	}
	if bs.Received != 1 || bs.BytesRecv != 1000 {
		t.Fatalf("b stats = %+v", bs)
	}
}

func TestProxyWANDelayInjection(t *testing.T) {
	nw := netsim.New(netsim.DefaultLAN, 1) // unscaled
	nw.Connect("syr", "rome", netsim.PathSpec{Latency: 30 * time.Millisecond, Bandwidth: 1e9})
	a := newTestProxy(t, "a", "syr", nw)
	b := newTestProxy(t, "b", "rome", nw)
	if err := a.ConnectTo(PeerInfo{Task: "b", Addr: b.Addr(), Site: "rome"}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("WAN delay not injected: %v", elapsed)
	}
}

func TestProxyTryRecv(t *testing.T) {
	a := newTestProxy(t, "a", "syr", nil)
	if _, ok := a.TryRecv(); ok {
		t.Fatal("empty TryRecv should be not-ok")
	}
	b := newTestProxy(t, "b", "syr", nil)
	connect(t, b, a)
	if err := b.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		if m, ok := a.TryRecv(); ok {
			if string(m.Payload) != "y" {
				t.Fatalf("m = %+v", m)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("message never arrived")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestConcurrentSends(t *testing.T) {
	recv := newTestProxy(t, "sink", "syr", nil)
	const senders, msgs = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		p := newTestProxy(t, string(rune('a'+i)), "syr", nil)
		connect(t, p, recv)
		wg.Add(1)
		go func(p *Proxy) {
			defer wg.Done()
			for j := 0; j < msgs; j++ {
				if err := p.Send("sink", []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < senders*msgs; i++ {
			if _, ok := recv.Recv(); !ok {
				t.Error("recv closed early")
				return
			}
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("messages lost")
	}
	if s := recv.Stats(); s.Received != senders*msgs {
		t.Fatalf("received = %d", s.Received)
	}
}

// --- services ---------------------------------------------------------------

func TestGatePauseResume(t *testing.T) {
	g := NewGate()
	if g.Paused() {
		t.Fatal("fresh gate should run")
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.Pause()
	g.Pause() // idempotent
	if !g.Paused() {
		t.Fatal("not paused")
	}
	released := make(chan error, 1)
	go func() { released <- g.Wait(context.Background()) }()
	select {
	case <-released:
		t.Fatal("Wait returned while paused")
	case <-time.After(20 * time.Millisecond):
	}
	g.Resume()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Resume did not release waiter")
	}
}

func TestGateWaitContextCancel(t *testing.T) {
	g := NewGate()
	g.Pause()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

// TestGateFastPathAndCycles: a running gate lets Wait through at once, even
// under a cancelled context, which a paused one returns; a gate paused again
// after a Resume blocks again; and waiters racing Pause and Resume all
// return once the gate is left running.
func TestGateFastPathAndCycles(t *testing.T) {
	g := NewGate()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Wait(cancelled); err != nil {
		t.Fatalf("running gate: %v", err)
	}
	g.Pause()
	if err := g.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("paused gate under a cancelled context: %v", err)
	}
	g.Resume()
	g.Pause()
	released := make(chan error, 1)
	go func() { released <- g.Wait(context.Background()) }()
	select {
	case <-released:
		t.Fatal("Wait returned while paused a second time")
	case <-time.After(20 * time.Millisecond):
	}
	g.Resume()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the second Resume did not release the waiter")
	}

	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if err := g.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 200 {
		g.Pause()
		g.Resume()
	}
	wg.Wait()
}

func TestIOServiceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "input.dat")
	if err := os.WriteFile(path, []byte("file-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	var s IOService
	for _, uri := range []string{path, "file://" + path} {
		data, err := s.ReadInput(uri)
		if err != nil {
			t.Fatalf("%s: %v", uri, err)
		}
		if string(data) != "file-bytes" {
			t.Fatalf("%s: data = %q", uri, data)
		}
	}
	if _, err := s.ReadInput(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIOServiceData(t *testing.T) {
	var s IOService
	data, err := s.ReadInput("data:inline-literal")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "inline-literal" {
		t.Fatalf("data = %q", data)
	}
}

func TestIOServiceURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("url-bytes"))
	}))
	defer srv.Close()
	s := IOService{Client: srv.Client()}
	data, err := s.ReadInput(srv.URL + "/input")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "url-bytes" {
		t.Fatalf("data = %q", data)
	}
	if _, err := s.ReadInput(srv.URL + "/missing"); err == nil {
		t.Fatal("404 accepted")
	}
}

func TestIOServiceLimit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	s := IOService{MaxBytes: 10}
	if _, err := s.ReadInput(path); err == nil {
		t.Fatal("oversized input accepted")
	}
}
