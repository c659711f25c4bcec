package core

import (
	"math/rand"

	"whatsup/internal/cluster"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/rps"
)

// Node is a WhatsUp peer: a user profile, the two WUP gossip layers and the
// BEEP dissemination logic. Node methods are not goroutine-safe; engines
// serialize access per node.
type Node struct {
	id       news.NodeID
	cfg      Config
	rng      *rand.Rand
	user     *profile.Profile // P̃, the user profile
	rps      *rps.Protocol
	wup      *cluster.Protocol
	grave    overlay.Graveyard // departure tombstones shared by both layers
	opinions Opinions
	seen     map[news.ID]struct{} // SIR "infected or removed" set
	behavior Behavior             // adversarial seam; nil = honest
}

// NewNode builds a WhatsUp node. addr is the transport address used by live
// runtimes (empty under simulation). opinions supplies the user's
// like/dislike reactions; rng drives all of the node's randomness.
func NewNode(id news.NodeID, addr string, cfg Config, opinions Opinions, rng *rand.Rand) *Node {
	cfg = cfg.WithDefaults()
	n := &Node{
		id:       id,
		cfg:      cfg,
		rng:      rng,
		user:     profile.New(),
		rps:      rps.New(id, addr, cfg.RPSViewSize, rng),
		wup:      cluster.New(id, addr, cfg.WUPViewSize, cfg.Metric, rng),
		opinions: opinions,
		seen:     make(map[news.ID]struct{}),
	}
	n.rps.SetGraveyard(&n.grave)
	n.wup.SetGraveyard(&n.grave)
	return n
}

// ID returns the node identifier.
func (n *Node) ID() news.NodeID { return n.id }

// Config returns the node's effective configuration (defaults applied).
func (n *Node) Config() Config { return n.cfg }

// UserProfile returns the node's user profile P̃. Callers must not mutate it
// concurrently with node handlers.
func (n *Node) UserProfile() *profile.Profile { return n.user }

// RPS returns the random-peer-sampling layer, driven by the engine.
func (n *Node) RPS() *rps.Protocol { return n.rps }

// WUP returns the clustering layer, driven by the engine.
func (n *Node) WUP() *cluster.Protocol { return n.wup }

// Seen reports whether the node has already received the item.
func (n *Node) Seen(id news.ID) bool {
	_, ok := n.seen[id]
	return ok
}

// SeedViews bootstraps both views (engine-provided initial random graph).
func (n *Node) SeedViews(descs []overlay.Descriptor) {
	n.rps.Seed(descs)
	n.wup.Seed(descs, n.user)
}

// BeginCycle runs the periodic maintenance that precedes gossiping: purging
// the user profile of entries older than the profile window (Section II-E)
// and, when a DescriptorTTL is configured, evicting view descriptors older
// than the horizon so departed nodes age out of both overlays.
func (n *Node) BeginCycle(now int64) {
	n.user.PurgeOlderThan(now - n.cfg.ProfileWindow)
	if n.cfg.DescriptorTTL > 0 {
		n.rps.EvictOlderThan(now - n.cfg.DescriptorTTL)
		n.wup.EvictOlderThan(now - n.cfg.DescriptorTTL)
	}
	if n.grave.Len() > 0 {
		n.grave.ExpireOlderThan(now - n.departureHorizon())
	}
}

// departureHorizon is how long a departure tombstone stays active: the view
// eviction horizon when one is configured (after which TTL eviction would
// have flushed the leaver anyway), the profile window otherwise.
func (n *Node) departureHorizon() int64 {
	if n.cfg.DescriptorTTL > 0 {
		return n.cfg.DescriptorTTL
	}
	return n.cfg.ProfileWindow
}

// NoteDeparture records a departure notice: the leaver is evicted from both
// views immediately and a tombstone keeps its stale descriptors from
// re-entering them (and keeps the notice propagating on this node's own
// gossip) for one horizon. Expired or self-referential notices are ignored.
func (n *Node) NoteDeparture(t overlay.Tombstone, now int64) {
	if t.Node == n.id || t.Stamp < now-n.departureHorizon() {
		return
	}
	if !n.grave.Note(t) {
		// Not news: the leaver left both views when its tombstone was first
		// noted, and every insert path has filtered it out since.
		return
	}
	n.rps.View().Remove(t.Node)
	n.wup.View().Remove(t.Node)
}

// AppendTombstones appends the node's active departure tombstones to dst in
// deterministic (node id) order — the piggyback payload its outgoing gossip
// carries so departure notices flood one neighbourhood horizon. When
// Config.NoticePiggybackCap is set and the set is larger, only that many of
// the freshest ride along (TTL eviction backstops the rest).
func (n *Node) AppendTombstones(dst []overlay.Tombstone) []overlay.Tombstone {
	return n.grave.AppendFreshest(dst, n.cfg.NoticePiggybackCap)
}

// InjectRPSCandidates feeds the current RPS view into the clustering layer,
// which is how randomly sampled nodes become social-network candidates
// (Section II: the clustering protocol "uses this overlay to provide nodes
// with the most similar candidates").
func (n *Node) InjectRPSCandidates() {
	n.wup.MergeFrom(n.rps.View(), n.user)
}

// ColdStart implements the joining procedure of Section II-D: the node
// inherits the RPS and WUP views of a random contact and builds a fresh
// profile by liking the most popular items found in the inherited RPS view.
func (n *Node) ColdStart(inheritedRPS, inheritedWUP []overlay.Descriptor, now int64) {
	n.rps.Seed(inheritedRPS)
	popular := profile.MostPopular(n.rps.View().Profiles(), n.cfg.ColdStartRatings)
	for _, id := range popular {
		n.user.Set(id, now, 1)
	}
	n.wup.Seed(inheritedWUP, n.user)
}

// Publish creates a news item at this node (generateNewsItem, Algorithm 1
// lines 12-17): the source likes its own item, initializes the item profile
// from its user profile, and hands the item to BEEP as a liked item.
func (n *Node) Publish(item news.Item, now int64) []Send {
	if _, dup := n.seen[item.ID]; dup {
		return nil
	}
	n.seen[item.ID] = struct{}{}
	n.user.Set(item.ID, item.Created, 1) // line 14: add <idI, tI, 1> to P̃
	// Lines 15-16: the fresh item profile is the user profile folded into an
	// empty one — a copy-on-write share, no per-entry work.
	itemProfile := profile.New()
	itemProfile.MergeAverage(n.user)
	msg := ItemMessage{Item: item, Profile: itemProfile, Dislikes: 0, Hops: 0}
	return n.forward(msg, true, now)
}

// Receive processes an incoming item (Algorithm 1 lines 1-11 followed by
// Algorithm 2). It returns the delivery record and the sends BEEP produces.
// Duplicate receipts are dropped per the SIR model (Section III).
//
//whatsup:hotpath
func (n *Node) Receive(msg ItemMessage, now int64) (Delivery, []Send) {
	d := Delivery{
		Node:       n.id,
		Item:       msg.Item.ID,
		Hops:       msg.Hops,
		Dislikes:   msg.Dislikes,
		ViaDislike: msg.ViaDislike,
	}
	if _, dup := n.seen[msg.Item.ID]; dup {
		d.Duplicate = true
		return d, nil
	}
	n.seen[msg.Item.ID] = struct{}{}

	liked := n.opinions.Likes(n.id, msg.Item.ID)
	if n.behavior != nil {
		liked = n.behavior.React(msg.Item, liked)
	}
	d.Liked = liked
	if liked {
		// Lines 3-4: aggregate the user profile as it was *before* rating
		// this item into the item profile (one sorted merge), then line 5:
		// record the like.
		msg.Profile.MergeAverage(n.user)
		n.user.Set(msg.Item.ID, msg.Item.Created, 1)
	} else {
		// Line 7: record the dislike; the item profile is left untouched.
		n.user.Set(msg.Item.ID, msg.Item.Created, 0)
	}
	// Lines 8-10: purge non-recent entries from the item profile before
	// handing it to BEEP.
	msg.Profile.PurgeOlderThan(now - n.cfg.ProfileWindow)

	return d, n.forward(msg, liked, now)
}

// forward implements BEEP (Algorithm 2). For a liked item it amplifies:
// fLIKE targets picked at random from the WUP view (orientation towards the
// social network, randomness against over-clustering). For a disliked item
// it forwards a single copy to the RPS neighbour whose profile is most
// similar to the *item profile*, while the dislike counter is below the TTL
// (orientation towards potential likers, serendipity with fanout 1).
//
//whatsup:hotpath
func (n *Node) forward(msg ItemMessage, liked bool, now int64) []Send {
	if n.behavior != nil {
		msg = n.behavior.OutgoingItem(msg)
	}
	var targets []overlay.Descriptor
	if !liked {
		if msg.Dislikes >= n.cfg.DislikeTTL {
			return nil // line 29: TTL reached, drop
		}
		msg.Dislikes++ // line 26
		if t, ok := n.rps.View().MostSimilar(n.cfg.Metric, msg.Profile); ok {
			targets = []overlay.Descriptor{t} // line 27 //whatsup:alloc single-element dislike target
		}
	} else {
		targets = n.wup.RandomTargets(n.cfg.FLike) // line 31
	}
	if len(targets) == 0 {
		return nil
	}
	sends := make([]Send, 0, len(targets)) //whatsup:alloc one sends slice per forward, exact capacity
	for i, t := range targets {
		p := msg.Profile
		if i < len(targets)-1 {
			p = msg.Profile.Clone() // each path carries its own copy (II-B)
		}
		sends = append(sends, Send{
			To: t.Node,
			Msg: ItemMessage{
				Item:       msg.Item,
				Profile:    p,
				Dislikes:   msg.Dislikes,
				Hops:       msg.Hops + 1,
				ViaDislike: !liked,
			},
		})
	}
	return sends
}

// Crash wipes the node's volatile overlay state (views), modelling an
// abrupt failure; the user profile survives as it is local durable state in
// the prototype. A crashed node may later Rejoin.
func (n *Node) Crash() {
	n.rps.Crash()
	n.wup.Crash()
	n.grave.Clear() // tombstones are volatile, like the views they guard
}

// Leave is the graceful departure: the node stops participating and drops
// its view state. Unlike Crash it is final — the membership layer marks the
// node departed and its descriptors age out of the remaining population's
// views within one eviction horizon (Config.DescriptorTTL).
func (n *Node) Leave() {
	n.Crash()
}

// Rejoin resumes a crashed node: its views were wiped with the crash, so it
// re-seeds both overlays from the supplied bootstrap descriptors (a sample
// of the currently online population). The user profile was retained across
// the downtime but is purged to the window at the resume time, so a node
// that stayed down longer than a profile window resumes with an empty
// profile exactly like the inactive-node scenario of Section II-E.
func (n *Node) Rejoin(bootstrap []overlay.Descriptor, now int64) {
	n.Crash()
	n.user.PurgeOlderThan(now - n.cfg.ProfileWindow)
	n.SeedViews(bootstrap)
}
