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

	"elga/internal/stats"
	"elga/internal/transport"
	"elga/internal/wire"
)

// Master is the DirectoryMaster: a bootstrap service queried once by any
// component to find a Directory (paper §3.3). It keeps the directory list
// and pushes it to every registered Directory on change.
type Master struct {
	node *transport.Node
	done chan struct{}
}

// StartMaster launches a DirectoryMaster listening on addr ("" for auto).
func StartMaster(network transport.Network, addr string) (*Master, error) {
	node, err := transport.NewNode(network, addr, 0)
	if err != nil {
		return nil, err
	}
	m := &Master{node: node, done: make(chan struct{})}
	go m.run()
	return m, nil
}

// Addr returns the master's dialable address.
func (m *Master) Addr() string { return m.node.Addr() }

// StatsMap implements stats.Provider: the peers the master's node keeps.
func (m *Master) StatsMap() stats.Counters {
	return stats.Counters{"peers": m.node.Stats().Peers}
}

// Close shuts the master down.
func (m *Master) Close() {
	m.node.Close()
	<-m.done
}

func (m *Master) run() {
	defer close(m.done)
	var dirs []string
	for pkt := range m.node.Inbox() {
		switch pkt.Type {
		case wire.TRegisterDirectory:
			j, err := wire.DecodeJoin(pkt.Payload)
			if err != nil {
				break
			}
			known := false
			for _, d := range dirs {
				if d == j.Addr {
					known = true
					break
				}
			}
			if !known {
				dirs = append(dirs, j.Addr)
			}
			_ = m.node.ReplyFrame(pkt, wire.AppendStringList(
				m.node.NewFrame(wire.TDirectoryList), dirs))
			// Push the updated list to every directory so peers learn
			// about each other.
			for _, d := range dirs {
				if d != j.Addr {
					_ = m.node.SendFrame(d, wire.AppendStringList(
						m.node.NewFrame(wire.TDirectoryList), dirs))
				}
			}
		case wire.TGetDirectory:
			_ = m.node.ReplyFrame(pkt, wire.AppendStringList(
				m.node.NewFrame(wire.TDirectoryList), dirs))
			// A bootstrap requester asks once: its peer retires as soon as
			// the reply is written. Registered directories keep theirs.
			if !slices.Contains(dirs, pkt.From) {
				m.node.CancelPeer(pkt.From)
			}
		case wire.TPing:
			_ = m.node.ReplyFrame(pkt, m.node.NewFrame(wire.TPong))
		default:
			// The master is bootstrap-only; everything else is noise.
		}
		wire.ReleasePacket(pkt)
	}
}
