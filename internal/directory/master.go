// Package directory implements ElGA's directory system (§3.3): the
// DirectoryMaster bootstrap service and the Directory servers that inform
// Participants which Agent owns what, broadcast view changes, and
// facilitate global synchronization (Figure 2).
//
// The first Directory to register becomes the coordinator: it owns the
// canonical cluster state (membership epoch, merged degree sketch, batch
// clock) and sequences barrier decisions. Additional Directories relay
// broadcasts to their own subscribers, so broadcast fan-out scales with
// the number of Directories while control decisions stay sequenced —
// the paper's "Directories re-broadcast messages among themselves".
package directory

import (
	"slices"

	"elga/internal/transport"
	"elga/internal/wire"
)

// Master is the DirectoryMaster: a bootstrap service queried once by any
// component to find a Directory (paper §3.3). It keeps the directory list
// and pushes it to every registered Directory on change.
type Master struct {
	ep   transport.Endpoint
	done chan struct{}
	dirs []string
	// waiting holds the TGetDirectory requests that arrived before any
	// directory registered; the first registration answers them.
	waiting []*wire.Packet
}

// StartMaster launches a DirectoryMaster listening on addr ("" for auto).
func StartMaster(network transport.Network, addr string) (*Master, error) {
	node, err := transport.NewNode(network, addr, 0)
	if err != nil {
		return nil, err
	}
	m := &Master{ep: node, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		for pkt := range node.Inbox() {
			if !m.handle(pkt) {
				wire.ReleasePacket(pkt)
			}
		}
	}()
	return m, nil
}

// Addr returns the master's dialable address.
func (m *Master) Addr() string { return m.ep.Addr() }

// TransportStats returns the master node's transport counters.
func (m *Master) TransportStats() transport.Stats { return m.ep.Stats() }

// Close shuts the master down.
func (m *Master) Close() {
	m.ep.Close()
	<-m.done
}

// handle processes one packet, reporting whether it kept it (a directory
// request parked until a directory registers).
func (m *Master) handle(pkt *wire.Packet) (retained bool) {
	switch pkt.Type {
	case wire.TRegisterDirectory:
		j, err := wire.DecodeJoin(pkt.Payload)
		if err != nil {
			break
		}
		if !slices.Contains(m.dirs, j.Addr) {
			m.dirs = append(m.dirs, j.Addr)
		}
		m.replyDirs(pkt)
		// Push the updated list to every directory so peers learn
		// about each other.
		for _, d := range m.dirs {
			if d != j.Addr {
				_ = m.ep.SendFrame(d, wire.AppendStringList(m.ep.NewFrame(wire.TDirectoryList), m.dirs))
			}
		}
		for _, w := range m.waiting {
			m.answer(w)
			wire.ReleasePacket(w)
		}
		m.waiting = nil
	case wire.TGetDirectory:
		if len(m.dirs) == 0 {
			m.waiting = append(m.waiting, pkt)
			return true
		}
		m.answer(pkt)
	case wire.TPing:
		_ = m.ep.ReplyFrame(pkt, m.ep.NewFrame(wire.TPong))
	default:
		// The master is bootstrap-only; everything else is noise.
	}
	return false
}

// replyDirs answers pkt with the directory list.
func (m *Master) replyDirs(pkt *wire.Packet) {
	_ = m.ep.ReplyFrame(pkt, wire.AppendStringList(m.ep.NewFrame(wire.TDirectoryList), m.dirs))
}

// answer replies to a bootstrap requester. It asks once: its peer retires
// as soon as the reply is written. Registered directories keep theirs.
func (m *Master) answer(pkt *wire.Packet) {
	m.replyDirs(pkt)
	if !slices.Contains(m.dirs, pkt.From) {
		m.ep.CancelPeer(pkt.From)
	}
}
