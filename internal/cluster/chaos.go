package cluster

import (
	"io"
	"net"
	"sync"
	"time"
)

// ChaosMode is the fault one proxied connection experiences.
type ChaosMode int

const (
	// ChaosPass relays the connection untouched.
	ChaosPass ChaosMode = iota
	// ChaosRefuse closes the accepted connection immediately — the
	// client sees a connection that dies before a byte arrives.
	ChaosRefuse
	// ChaosBlackhole accepts and then neither reads nor writes until
	// the proxy closes; the client's timeout is the only way out.
	ChaosBlackhole
	// ChaosReset relays the request upstream but cuts the connection
	// (RST via SO_LINGER 0) after a fixed prefix of the response, so
	// the client fails mid-body.
	ChaosReset
	// ChaosSlow delays the relay by the proxy's slow delay, then
	// passes — the replica answers correctly but late, the shape that
	// hedging exists for. A client that closes during the delay is
	// never relayed, so an abandoned request costs the replica nothing.
	ChaosSlow
)

// ChaosProxy is a deterministic TCP fault injector in front of one
// replica. The fault schedule is indexed by accepted-connection count:
// connection k gets schedule[k % len(schedule)] (an empty schedule
// passes everything). With an HTTP client that disables keep-alives
// and issues requests serially, request k maps to connection k, which
// is what makes cluster fault-matrix tests reproducible.
type ChaosProxy struct {
	ln     net.Listener
	target string

	mu       sync.Mutex
	schedule []ChaosMode
	accepted int
	conns    map[net.Conn]struct{}

	// SlowDelay is ChaosSlow's added latency (default 100ms) and
	// ResetAfter the response-byte prefix ChaosReset relays before
	// cutting (default 64). Set both before the first connection.
	SlowDelay  time.Duration
	ResetAfter int64

	closed chan struct{}
	wg     sync.WaitGroup
}

// NewChaosProxy listens on a fresh loopback port and forwards to
// target ("host:port") under the given schedule.
func NewChaosProxy(target string, schedule []ChaosMode) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ChaosProxy{
		ln:         ln,
		target:     target,
		schedule:   append([]ChaosMode(nil), schedule...),
		conns:      make(map[net.Conn]struct{}),
		SlowDelay:  100 * time.Millisecond,
		ResetAfter: 64,
		closed:     make(chan struct{}),
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL for HTTP clients.
func (p *ChaosProxy) URL() string { return "http://" + p.Addr() }

// SetSchedule swaps the fault schedule and restarts the connection
// counter, so a test can re-aim faults mid-run deterministically.
func (p *ChaosProxy) SetSchedule(schedule []ChaosMode) {
	p.mu.Lock()
	p.schedule = append([]ChaosMode(nil), schedule...)
	p.accepted = 0
	p.mu.Unlock()
}

// Accepted returns how many connections the proxy has accepted.
func (p *ChaosProxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// Close stops the listener and tears down every live connection
// (releasing any black-holed clients).
func (p *ChaosProxy) Close() {
	select {
	case <-p.closed:
		return
	default:
	}
	close(p.closed)
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *ChaosProxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		mode := ChaosPass
		if len(p.schedule) > 0 {
			mode = p.schedule[p.accepted%len(p.schedule)]
		}
		p.accepted++
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn, mode)
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
		}()
	}
}

func (p *ChaosProxy) handle(client net.Conn, mode ChaosMode) {
	defer client.Close()
	switch mode {
	case ChaosRefuse:
		rst(client)
		return
	case ChaosBlackhole:
		<-p.closed
		return
	}
	var head []byte // request bytes read during a ChaosSlow stall
	if mode == ChaosSlow {
		// Watch the client through the stall: a read that fails before
		// the deadline means it closed (or the proxy did), and an
		// abandoned request must not reach the replica.
		client.SetReadDeadline(time.Now().Add(p.SlowDelay))
		buf := make([]byte, 4096)
		for {
			n, err := client.Read(buf)
			head = append(head, buf[:n]...)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				break
			}
			if err != nil {
				return
			}
		}
		client.SetReadDeadline(time.Time{})
	}
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer upstream.Close()
	p.mu.Lock()
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, upstream)
		p.mu.Unlock()
	}()
	if _, err := upstream.Write(head); err != nil {
		return
	}

	done := make(chan struct{}, 2)
	go func() {
		io.Copy(upstream, client)
		done <- struct{}{}
	}()
	if mode == ChaosReset {
		io.CopyN(client, upstream, p.ResetAfter)
		rst(client)
		upstream.Close()
		<-done
		return
	}
	go func() {
		io.Copy(client, upstream)
		done <- struct{}{}
	}()
	// Either direction closing ends the relay; Close on both conns
	// unblocks the other copy.
	select {
	case <-done:
	case <-p.closed:
	}
}

// rst closes a TCP connection abruptly (linger 0 → RST) so the peer
// sees a reset rather than an orderly FIN.
func rst(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
