package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// tcpIOTimeout bounds one frame write to a peer, so a stalled remote
// never blocks Sync forever; on timeout the cached connection is dropped
// and the runtime re-dirties the affected senders for retry. The ack wait
// additionally scales with batch size (see ackTimeout), because the peer
// acknowledges only after synchronously applying the whole envelope.
const tcpIOTimeout = 30 * time.Second

// ackTimeout returns the deadline budget for awaiting an envelope's ack:
// the base I/O timeout plus an allowance per tuple, since the receiver's
// apply (signature verification plus datalog fixpoint) is unbounded in
// envelope size.
func ackTimeout(tuples int) time.Duration {
	return tcpIOTimeout + time.Duration(tuples)*25*time.Millisecond
}

// TCPNetwork is the socket Transport: each endpoint owns a TCP listener
// (loopback by default) and envelopes travel as length-prefixed frames of
// the shared wire codec. Send is a synchronous request/acknowledge
// exchange — the frame is acknowledged only after the peer's Receiver has
// applied it — which gives Sync the same round semantics as MemNetwork.
//
// Endpoints register their listen addresses in the network's in-process
// registry. For a genuinely multi-host deployment the registry would be
// replaced by static configuration or a directory; Register is exposed so
// a remote endpoint's address can be added by hand.
type TCPNetwork struct {
	mu        sync.Mutex
	addr      string // listen address, default "127.0.0.1:0"
	registry  map[string]string
	endpoints map[string]*tcpEndpoint
	closed    bool
}

// NewTCPNetwork creates a TCP transport listening on loopback.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{
		addr:      "127.0.0.1:0",
		registry:  map[string]string{},
		endpoints: map[string]*tcpEndpoint{},
	}
}

// Register maps an endpoint name to a dialable address, for peers whose
// listener lives in another process.
func (n *TCPNetwork) Register(name, addr string) {
	n.mu.Lock()
	n.registry[name] = addr
	n.mu.Unlock()
}

// Addr returns the bound listen address of a local endpoint.
func (n *TCPNetwork) Addr(name string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.registry[name]
	return addr, ok
}

// Endpoint creates the named endpoint with its own listener, or returns
// the existing one.
func (n *TCPNetwork) Endpoint(name string) (Endpoint, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("dist: tcp network is closed")
	}
	if ep, ok := n.endpoints[name]; ok {
		return ep, nil
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return nil, fmt.Errorf("dist: endpoint %s: %w", name, err)
	}
	ep := &tcpEndpoint{net: n, name: name, ln: ln, conns: map[string]*peerConn{}, inward: map[net.Conn]struct{}{}}
	n.endpoints[name] = ep
	n.registry[name] = ln.Addr().String()
	go ep.acceptLoop()
	return ep, nil
}

// Close shuts down all listeners.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	var first error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type tcpEndpoint struct {
	net  *TCPNetwork
	name string
	ln   net.Listener

	recvMu   sync.Mutex
	receiver Receiver

	connMu sync.Mutex
	conns  map[string]*peerConn  // outbound connections, one per peer
	inward map[net.Conn]struct{} // accepted connections, for Close

	closeOnce sync.Once
	stats     statsCounter
}

// peerConn is a cached outbound connection; its mutex serializes the
// frame/ack exchanges of concurrent Sends to the same peer.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func (ep *tcpEndpoint) Name() string { return ep.name }

func (ep *tcpEndpoint) SetReceiver(fn Receiver) {
	ep.recvMu.Lock()
	ep.receiver = fn
	ep.recvMu.Unlock()
}

func (ep *tcpEndpoint) Stats() TransferStats { return ep.stats.snapshot() }

// TransportKind labels wire metrics for this endpoint (see metrics.go).
func (ep *tcpEndpoint) TransportKind() string { return "tcp" }

func (ep *tcpEndpoint) Close() error {
	var err error
	ep.closeOnce.Do(func() {
		err = ep.ln.Close()
		ep.connMu.Lock()
		conns := ep.conns
		ep.conns = map[string]*peerConn{}
		inward := make([]net.Conn, 0, len(ep.inward))
		for c := range ep.inward {
			inward = append(inward, c)
		}
		ep.inward = map[net.Conn]struct{}{}
		ep.connMu.Unlock()
		for _, pc := range conns {
			pc.mu.Lock()
			if pc.conn != nil {
				pc.conn.Close()
				pc.conn = nil
			}
			pc.mu.Unlock()
		}
		// Closing accepted connections unblocks their serve goroutines,
		// which matters when the peer lives in another process and holds
		// its side open.
		for _, c := range inward {
			c.Close()
		}
	})
	return err
}

// peer returns (creating on first use) the cached connection slot for a
// destination endpoint.
func (ep *tcpEndpoint) peer(to string) *peerConn {
	ep.connMu.Lock()
	defer ep.connMu.Unlock()
	pc, ok := ep.conns[to]
	if !ok {
		pc = &peerConn{}
		ep.conns[to] = pc
	}
	return pc
}

// Send writes one frame on the (cached, dialed on demand) connection to
// the peer and waits for the acknowledgement that the peer's Receiver
// finished applying the envelope. A wire error drops the cached
// connection so the next Send re-dials.
func (ep *tcpEndpoint) Send(to string, env *Envelope) error {
	addr, ok := ep.net.Addr(to)
	if !ok {
		return fmt.Errorf("dist: no address registered for endpoint %q", to)
	}
	pc := ep.peer(to)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("dist: dialing %s (%s): %w", to, addr, err)
		}
		pc.conn = conn
	}
	drop := func() {
		pc.conn.Close()
		pc.conn = nil
	}
	if err := pc.conn.SetWriteDeadline(time.Now().Add(tcpIOTimeout)); err != nil {
		drop()
		return fmt.Errorf("dist: sending to %s: %w", to, err)
	}
	data := EncodeEnvelope(env)
	if err := writeFrame(pc.conn, data); err != nil {
		drop()
		return fmt.Errorf("dist: sending to %s: %w", to, err)
	}
	ep.stats.sent(len(data))
	if err := pc.conn.SetReadDeadline(time.Now().Add(ackTimeout(len(env.Tuples)))); err != nil {
		drop()
		return fmt.Errorf("dist: awaiting ack from %s: %w", to, err)
	}
	ack, err := readFrame(pc.conn)
	if err != nil {
		drop()
		return fmt.Errorf("dist: awaiting ack from %s: %w", to, err)
	}
	if msg := string(ack); msg != "ok" {
		return fmt.Errorf("dist: peer %s refused envelope: %s", to, strings.TrimPrefix(msg, "err:"))
	}
	return nil
}

func (ep *tcpEndpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go ep.serve(conn)
	}
}

// serve handles one inbound connection, which may carry several frames.
func (ep *tcpEndpoint) serve(conn net.Conn) {
	ep.connMu.Lock()
	ep.inward[conn] = struct{}{}
	ep.connMu.Unlock()
	defer func() {
		ep.connMu.Lock()
		delete(ep.inward, conn)
		ep.connMu.Unlock()
		conn.Close()
	}()
	for {
		data, err := readFrame(conn)
		if err != nil {
			return // EOF or broken peer
		}
		ep.stats.received(len(data))
		ack := "ok"
		if err := ep.apply(data); err != nil {
			ack = "err:" + err.Error()
		}
		if err := writeFrame(conn, []byte(ack)); err != nil {
			return
		}
	}
}

func (ep *tcpEndpoint) apply(data []byte) error {
	env, err := DecodeEnvelope(data)
	if err != nil {
		return err
	}
	ep.recvMu.Lock()
	fn := ep.receiver
	ep.recvMu.Unlock()
	if fn == nil {
		return fmt.Errorf("endpoint %q has no receiver", ep.name)
	}
	return fn(env)
}

// maxFrame bounds a frame's size (a safety net against corrupt length
// prefixes, not a protocol limit worth tuning).
const maxFrame = 1 << 30

// WriteFrame writes one length-prefixed frame: the wire framing shared by
// the TCP transport and the serving layer (internal/server).
func WriteFrame(w io.Writer, data []byte) error { return writeFrame(w, data) }

// ReadFrame reads one length-prefixed frame written by WriteFrame, up to
// the transport's own 1 GiB safety net. Readers of untrusted input
// should use ReadFrameLimit with a bound sized to their protocol.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r) }

// ReadFrameLimit reads one frame, rejecting any whose declared length
// exceeds limit — the allocation happens only after the check, so an
// unauthenticated peer cannot make the reader allocate a huge buffer
// with a 4-byte header.
func ReadFrameLimit(r io.Reader, limit uint32) ([]byte, error) {
	return readFrameLimit(r, limit)
}

func writeFrame(w io.Writer, data []byte) error {
	// Mirror the receiver's limit so an oversized envelope fails loudly at
	// the sender instead of being rejected (or length-wrapped) remotely
	// and retried forever.
	if len(data) > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds limit %d", len(data), maxFrame)
	}
	// Header and payload go out in one Write: one syscall per frame on a
	// socket, and no small header segment waiting on the payload.
	frame := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(frame, uint32(len(data)))
	copy(frame[4:], data)
	_, err := w.Write(frame)
	return err
}

func readFrame(r io.Reader) ([]byte, error) { return readFrameLimit(r, maxFrame) }

func readFrameLimit(r io.Reader, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds limit %d", n, limit)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}
