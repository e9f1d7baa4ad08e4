package route

import (
	"sync"
	"time"

	"elga/internal/transport"
	"elga/internal/wire"
)

// Feed keeps a participant with no event loop of its own — a client, a
// streamer — on the directory's newest view. A goroutine takes each view
// broadcast off the node's inbox as it arrives and acknowledges it at once,
// so an idle participant leaves the directory nothing to retransmit, and
// keeps only the newest view. The owner installs that one with Install
// before its next route lookup, so Router.Update stays on the owner's
// goroutine. Installing a view that drops agents retires the node's peers
// for them, handing each unacknowledged send to one of them to reclaim.
type Feed struct {
	node    *transport.Node
	router  *Router
	reclaim func(transport.FailedSend)
	// arrived holds a token once a view has been kept since the last
	// Install looked.
	arrived chan struct{}
	done    chan struct{} // closed when the node's inbox has closed
	// idle takes a token from the goroutine only while it holds no packet:
	// one it took off the inbox is kept before Install drains the rest.
	idle chan struct{}

	// mu serializes the two readers of the inbox, the goroutine and
	// Install, which drains it too: a view that reached the inbox before
	// the call is installed by it, whether or not the goroutine has run.
	mu     sync.Mutex
	newest *wire.View // kept and not yet installed
}

// NewFeed starts feeding router the views that arrive on node's inbox; its
// goroutine runs until the node closes. Packets of any other type are
// dropped. reclaim, if not nil, takes over the sends a retired peer left
// unacknowledged; otherwise they are released.
func NewFeed(node *transport.Node, router *Router, reclaim func(transport.FailedSend)) *Feed {
	f := &Feed{node: node, router: router, reclaim: reclaim, arrived: make(chan struct{}, 1),
		done: make(chan struct{}), idle: make(chan struct{})}
	go func() {
		defer close(f.done)
		for {
			select {
			case pkt, ok := <-node.Inbox():
				if !ok {
					return
				}
				f.mu.Lock()
				f.take(pkt)
				f.mu.Unlock()
			case f.idle <- struct{}{}:
			}
		}
	}()
	return f
}

// take acknowledges a view broadcast and keeps it unless a newer one is
// kept already (the two readers may hand views over out of order), then
// releases the packet. f.mu held.
func (f *Feed) take(pkt *wire.Packet) {
	if pkt.Type == wire.TDirUpdate {
		f.node.Ack(pkt)
		v, err := wire.DecodeView(pkt.Payload)
		if err == nil && (f.newest == nil || !older(v, f.newest.Epoch, f.newest.BatchID)) {
			f.newest = v
			select {
			case f.arrived <- struct{}{}:
			default:
			}
		}
	}
	wire.ReleasePacket(pkt)
}

// older reports whether v precedes the view of the given epoch and batch.
func older(v *wire.View, epoch, batch uint64) bool {
	return v.Epoch < epoch || v.Epoch == epoch && v.BatchID < batch
}

// next waits until the goroutine holds no packet, drains the inbox and
// hands over the newest kept view, if any. closed reports that the node has
// closed.
func (f *Feed) next() (v *wire.View, closed bool) {
	select {
	case <-f.idle:
	case <-f.done:
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for drained := false; !drained; {
		select {
		case pkt, ok := <-f.node.Inbox():
			if !ok {
				closed, drained = true, true
				break
			}
			f.take(pkt)
		default:
			drained = true
		}
	}
	v, f.newest = f.newest, nil
	return v, closed
}

// Install installs the newest view delivered since the last call, if any.
// With none delivered it waits up to wait for one. Once the node has closed
// it returns transport.ErrNodeClosed.
func (f *Feed) Install(wait time.Duration) error {
	var timeout <-chan time.Time
	for {
		v, closed := f.next()
		if v != nil {
			return f.install(v)
		}
		if closed {
			return transport.ErrNodeClosed
		}
		if wait <= 0 {
			return nil
		}
		if timeout == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-f.arrived:
		case <-f.done:
		case <-timeout:
			return nil
		}
	}
}

// install updates the router with v and retires the peers of the agents it
// dropped.
func (f *Feed) install(v *wire.View) error {
	if older(v, f.router.Epoch(), f.router.BatchID()) {
		return nil
	}
	old := f.router.addrs
	if _, err := f.router.Update(v); err != nil {
		return err
	}
	if f.router.sketchOnly {
		return nil
	}
	live := make(map[string]bool, len(f.router.addrs))
	for _, addr := range f.router.addrs {
		live[addr] = true
	}
	for _, addr := range old {
		if !live[addr] {
			for _, s := range f.node.CancelPeer(addr) {
				if f.reclaim != nil {
					f.reclaim(s)
				} else {
					wire.ReleaseFrame(s.Frame)
				}
			}
		}
	}
	return nil
}
