package route

import (
	"elga/internal/transport"
	"elga/internal/wire"
)

// Install is a client's or a streamer's view install, run by its Handle:
// it updates r with v unless v is older than the installed view, and
// retires ep's peers for the agents v dropped, handing each send they left
// unacknowledged to reclaim (nil releases them).
func (r *Router) Install(v *wire.View, ep transport.Endpoint, reclaim func(transport.FailedSend)) error {
	if v.Precedes(r.epoch, r.batch) {
		return nil
	}
	old := r.addrs
	if _, err := r.Update(v); err != nil || r.sketchOnly {
		return err
	}
	live := make(map[string]bool, len(r.addrs))
	for _, addr := range r.addrs {
		live[addr] = true
	}
	for _, addr := range old {
		if live[addr] {
			continue
		}
		for _, s := range ep.CancelPeer(addr) {
			if reclaim != nil {
				reclaim(s)
			} else {
				wire.ReleaseFrame(s.Frame)
			}
		}
	}
	return nil
}
