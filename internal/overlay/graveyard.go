// Graveyard: the departure-notice tombstone set of the churn protocol.
//
// A graceful leaver piggybacks a departure notice on its final gossip
// exchanges. Receivers evict the leaver immediately instead of waiting out
// the DescriptorTTL horizon, remember the departure as a tombstone, forward
// it on their own gossip for one horizon so the notice floods the leaver's
// neighbourhood, and filter the leaver's stale descriptors out of every
// merge until the tombstone expires. The tombstone set is deliberately tiny
// and short-lived: it only has to outlive the stale descriptors still in
// flight, which the eviction horizon already bounds.
package overlay

import (
	"cmp"
	"slices"

	"whatsup/internal/news"
	"whatsup/internal/wire"
)

// Tombstone records one graceful departure: the node that left and the cycle
// it announced the departure at.
type Tombstone struct {
	Node  news.NodeID
	Stamp int64
}

// WireSize returns the exact number of bytes AppendTombstone produces.
func (t Tombstone) WireSize() int {
	return wire.IntLen(int64(t.Node)) + wire.IntLen(t.Stamp)
}

// Graveyard is a bounded-lifetime set of departure tombstones owned by one
// node. It is not goroutine-safe. The zero value is ready to use and holds
// no memory, so churn-free nodes never pay for it.
type Graveyard struct {
	// byNode is the active set, kept sorted by node id (the full-set
	// piggyback order) on every change, so forwarding it never sorts.
	byNode []Tombstone
	// byFresh caches the active set freshest stamp first (the
	// capped-selection order), rebuilt lazily after a change: every outgoing
	// gossip message piggybacks the graveyard, so a gossip round over an
	// unchanged graveyard must pay one sort, not one per message.
	byFresh []Tombstone
	freshOK bool
}

// Len reports the number of active tombstones.
func (g *Graveyard) Len() int { return len(g.byNode) }

// search returns the position of id in byNode and whether it is present.
func (g *Graveyard) search(id news.NodeID) (int, bool) {
	return slices.BinarySearchFunc(g.byNode, id, func(t Tombstone, id news.NodeID) int {
		return cmp.Compare(t.Node, id)
	})
}

// Contains reports whether the node has an active tombstone. It is a binary
// search that allocates nothing, so merge paths can call it per descriptor.
func (g *Graveyard) Contains(id news.NodeID) bool {
	_, ok := g.search(id)
	return ok
}

// Note records a departure, keeping the freshest stamp per node, and reports
// whether the tombstone was new information (new node or fresher stamp) —
// the signal to keep forwarding it.
func (g *Graveyard) Note(t Tombstone) bool {
	i, ok := g.search(t.Node)
	switch {
	case !ok:
		g.byNode = slices.Insert(g.byNode, i, t)
	case g.byNode[i].Stamp < t.Stamp:
		g.byNode[i].Stamp = t.Stamp
	default:
		return false
	}
	g.freshOK = false
	return true
}

// ExpireOlderThan drops every tombstone whose stamp is strictly older than
// minStamp — the same strictly-older-than boundary View.EvictOlderThan uses —
// and reports how many were dropped. Survivors keep their node-id order.
func (g *Graveyard) ExpireOlderThan(minStamp int64) int {
	n := len(g.byNode)
	g.byNode = slices.DeleteFunc(g.byNode, func(t Tombstone) bool { return t.Stamp < minStamp })
	dropped := n - len(g.byNode)
	if dropped > 0 {
		g.freshOK = false
	}
	return dropped
}

// AppendActive appends the active tombstones to dst sorted by node id, so
// callers forwarding them on gossip emit a deterministic order.
func (g *Graveyard) AppendActive(dst []Tombstone) []Tombstone {
	return append(dst, g.byNode...)
}

// AppendFreshest appends at most max active tombstones to dst. While the
// whole set fits (max <= 0, or max >= Len) this is AppendActive — the full
// set in node-id order, so a node under its cap piggybacks identically to an
// uncapped one. Only when the cap truncates does order pick what survives:
// the freshest stamps first (ties broken by node id), because their stale
// descriptors are the ones most likely still circulating, while the oldest
// are close to TTL-flushed anyway.
func (g *Graveyard) AppendFreshest(dst []Tombstone, max int) []Tombstone {
	if max <= 0 || max >= len(g.byNode) {
		return g.AppendActive(dst)
	}
	if !g.freshOK {
		g.byFresh = append(g.byFresh[:0], g.byNode...)
		slices.SortFunc(g.byFresh, func(a, b Tombstone) int {
			switch {
			case a.Stamp > b.Stamp:
				return -1
			case a.Stamp < b.Stamp:
				return 1
			case a.Node < b.Node:
				return -1
			case a.Node > b.Node:
				return 1
			default:
				return 0
			}
		})
		g.freshOK = true
	}
	return append(dst, g.byFresh[:max]...)
}

// Clear drops every tombstone (crash semantics: tombstones are volatile
// state).
func (g *Graveyard) Clear() {
	g.byNode, g.byFresh = g.byNode[:0], g.byFresh[:0]
	g.freshOK = false
}
