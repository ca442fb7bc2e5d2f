package network

import "fmt"

// TCPFabric implements Fabric over real loopback TCP sockets for an
// in-process runtime (HPX's TCP parcelport analog). It is composed of one
// PeerFabric per locality, each listening on an ephemeral 127.0.0.1 port
// and knowing every other locality's address, so an in-process run
// exercises exactly the transport a multi-process cluster uses: the same
// hello handshake, framing, read loop, dial cache and redial path.
//
// TCPFabric applies no cost model; per-message overhead is whatever the
// kernel socket path genuinely costs.
type TCPFabric struct {
	peers []*PeerFabric
}

// NewTCPFabric creates a TCP fabric connecting n localities. Connections
// between pairs are established lazily on first send.
func NewTCPFabric(n int) (*TCPFabric, error) {
	f := &TCPFabric{peers: make([]*PeerFabric, 0, n)}
	for i := 0; i < n; i++ {
		p, err := NewPeerFabric(PeerConfig{Localities: n, Self: i})
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		f.peers = append(f.peers, p)
	}
	for _, p := range f.peers {
		for _, q := range f.peers {
			if err := p.SetPeerAddr(q.Self(), q.Addr()); err != nil {
				_ = f.Close()
				return nil, err
			}
		}
	}
	return f, nil
}

// Localities implements Fabric.
func (f *TCPFabric) Localities() int { return len(f.peers) }

// Model implements Fabric; real sockets have no synthetic model.
func (f *TCPFabric) Model() CostModel { return CostModel{} }

// SetHandler implements Fabric.
func (f *TCPFabric) SetHandler(dst int, h Handler) {
	if dst < 0 || dst >= len(f.peers) {
		panic(fmt.Sprintf("network: SetHandler(%d) out of range", dst))
	}
	f.peers[dst].SetHandler(dst, h)
}

// Send implements Fabric by sending from src's peer; see PeerFabric.Send.
func (f *TCPFabric) Send(src, dst int, payload []byte) error {
	if src < 0 || src >= len(f.peers) {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadLocality, src, dst, len(f.peers))
	}
	return f.peers[src].Send(src, dst, payload)
}

// Stats implements Fabric, summing the peers' counters.
func (f *TCPFabric) Stats() Stats {
	var s Stats
	for _, p := range f.peers {
		ps := p.Stats()
		s.MessagesSent += ps.MessagesSent
		s.BytesSent += ps.BytesSent
		s.MessagesReceived += ps.MessagesReceived
		s.BytesReceived += ps.BytesReceived
		s.Dropped += ps.Dropped
		s.Duplicated += ps.Duplicated
		s.Delayed += ps.Delayed
	}
	return s
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook,
// mirroring SimFabric.SetFaultHook. Each peer sees only its own outbound
// traffic: in one process every send already passes through the hook on
// the sending side, so the receive-side check PeerFabric makes for
// cross-process partitions is filtered out — otherwise drop rates would
// compound and drops would be counted twice.
func (f *TCPFabric) SetFaultHook(h FaultHook) {
	for i, p := range f.peers {
		if h == nil {
			p.SetFaultHook(nil)
			continue
		}
		p.SetFaultHook(func(src, dst int, payload []byte) Fault {
			if src != i {
				return Fault{}
			}
			return h(src, dst, payload)
		})
	}
}

// Close implements Fabric, closing every peer.
func (f *TCPFabric) Close() error {
	for _, p := range f.peers {
		_ = p.Close()
	}
	return nil
}
