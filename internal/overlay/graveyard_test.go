package overlay

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/wire"
)

func TestGraveyardNoteFresherWins(t *testing.T) {
	var g Graveyard
	if g.Len() != 0 || g.Contains(3) {
		t.Fatal("zero-value graveyard must be empty")
	}
	if !g.Note(Tombstone{Node: 3, Stamp: 10}) {
		t.Fatal("first note must be new information")
	}
	if g.Note(Tombstone{Node: 3, Stamp: 10}) || g.Note(Tombstone{Node: 3, Stamp: 7}) {
		t.Fatal("same or older stamp must not be new information")
	}
	if !g.Note(Tombstone{Node: 3, Stamp: 12}) {
		t.Fatal("fresher stamp must be new information")
	}
	if !g.Contains(3) || g.Len() != 1 {
		t.Fatalf("graveyard state after notes: len=%d contains=%v", g.Len(), g.Contains(3))
	}
	if got := g.AppendActive(nil); len(got) != 1 || got[0] != (Tombstone{Node: 3, Stamp: 12}) {
		t.Fatalf("AppendActive = %v, want the freshest stamp", got)
	}
}

// TestGraveyardExpireBoundary pins the strictly-older-than boundary shared
// with View.EvictOlderThan: a tombstone stamped exactly at minStamp survives.
func TestGraveyardExpireBoundary(t *testing.T) {
	var g Graveyard
	g.Note(Tombstone{Node: 1, Stamp: 9})
	g.Note(Tombstone{Node: 2, Stamp: 10})
	g.Note(Tombstone{Node: 3, Stamp: 11})
	if dropped := g.ExpireOlderThan(10); dropped != 1 {
		t.Fatalf("ExpireOlderThan(10) dropped %d, want 1 (only stamp 9)", dropped)
	}
	if g.Contains(1) || !g.Contains(2) || !g.Contains(3) {
		t.Fatal("stamp == minStamp must survive, stamp < minStamp must not")
	}
}

func TestGraveyardAppendActiveSorted(t *testing.T) {
	var g Graveyard
	for _, id := range []news.NodeID{9, 2, 7, 4} {
		g.Note(Tombstone{Node: id, Stamp: int64(id)})
	}
	got := g.AppendActive([]Tombstone{{Node: 100, Stamp: 1}})
	if len(got) != 5 || got[0].Node != 100 {
		t.Fatalf("AppendActive must append after dst: %v", got)
	}
	for i := 2; i < len(got); i++ {
		if got[i-1].Node >= got[i].Node {
			t.Fatalf("appended tombstones not sorted by node id: %v", got[1:])
		}
	}
	g.Clear()
	if g.Len() != 0 {
		t.Fatal("Clear must drop all tombstones")
	}
}

// TestGraveyardAppendFreshest pins the capped piggyback path: a cap that
// does not truncate degrades to the full set in AppendActive's node-id
// order, a truncating cap keeps the freshest stamps (node-id tiebreak), and
// the cached orders are invalidated by Note/Expire/Clear.
func TestGraveyardAppendFreshest(t *testing.T) {
	var g Graveyard
	if got := g.AppendFreshest(nil, 4); len(got) != 0 {
		t.Fatalf("empty graveyard appended %v", got)
	}
	g.Note(Tombstone{Node: 4, Stamp: 7})
	g.Note(Tombstone{Node: 1, Stamp: 9})
	g.Note(Tombstone{Node: 6, Stamp: 9})
	g.Note(Tombstone{Node: 2, Stamp: 3})

	// Uncapped (and any cap >= Len): identical to AppendActive.
	byNode := []Tombstone{{Node: 1, Stamp: 9}, {Node: 2, Stamp: 3}, {Node: 4, Stamp: 7}, {Node: 6, Stamp: 9}}
	got := g.AppendFreshest([]Tombstone{{Node: 100, Stamp: 1}}, 0)
	if len(got) != 5 || got[0].Node != 100 {
		t.Fatalf("AppendFreshest must append after dst: %v", got)
	}
	for i, w := range byNode {
		if got[i+1] != w {
			t.Fatalf("uncapped order: got %v, want node-id order %v", got[1:], byNode)
		}
	}
	if wide := g.AppendFreshest(nil, 10); !slices.Equal(wide, byNode) {
		t.Fatalf("non-truncating cap must match the uncapped order: %v", wide)
	}
	// A truncating cap keeps the freshest, ties broken by node id.
	byFresh := []Tombstone{{Node: 1, Stamp: 9}, {Node: 6, Stamp: 9}, {Node: 4, Stamp: 7}}
	if capped := g.AppendFreshest(nil, 3); !slices.Equal(capped, byFresh) {
		t.Fatalf("cap of 3: got %v, want %v", capped, byFresh)
	}

	// A fresher note must displace the cached heads.
	g.Note(Tombstone{Node: 2, Stamp: 11})
	if head := g.AppendFreshest(nil, 1); len(head) != 1 || head[0] != (Tombstone{Node: 2, Stamp: 11}) {
		t.Fatalf("fresh cache not invalidated by Note: head %v", head)
	}
	if full := g.AppendFreshest(nil, 0); len(full) != 4 || full[1] != (Tombstone{Node: 2, Stamp: 11}) {
		t.Fatalf("node-id cache not invalidated by Note: %v", full)
	}
	// Expiry must drop from the cached order too.
	g.ExpireOlderThan(9)
	for _, tb := range g.AppendFreshest(nil, 0) {
		if tb.Stamp < 9 {
			t.Fatalf("expired tombstone still piggybacked: %v", tb)
		}
	}
	g.Clear()
	if got := g.AppendFreshest(nil, 0); len(got) != 0 {
		t.Fatalf("cleared graveyard appended %v", got)
	}
}

func TestTombstoneWireRoundTrip(t *testing.T) {
	cases := [][]Tombstone{
		nil,
		{{Node: 0, Stamp: 0}},
		{{Node: 5, Stamp: 42}, {Node: 70000, Stamp: -3}, {Node: 1, Stamp: 1 << 40}},
	}
	for _, tombs := range cases {
		buf := AppendTombstones(nil, tombs)
		if want := wire.UintLen(uint64(len(tombs))) + TombstonesWireSize(tombs); len(buf) != want {
			t.Fatalf("encoded %d bytes, want count prefix + TombstonesWireSize = %d", len(buf), want)
		}
		got, rest, err := DecodeTombstones(append(buf, 0xAA))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 1 || rest[0] != 0xAA {
			t.Fatalf("decode consumed wrong length, rest=%v", rest)
		}
		if len(got) != len(tombs) {
			t.Fatalf("round trip length %d, want %d", len(got), len(tombs))
		}
		for i := range tombs {
			if got[i] != tombs[i] {
				t.Fatalf("round trip[%d] = %v, want %v", i, got[i], tombs[i])
			}
		}
	}
}

func TestDecodeTombstonesRejectsTruncation(t *testing.T) {
	buf := AppendTombstones(nil, []Tombstone{{Node: 5, Stamp: 42}, {Node: 9, Stamp: 50}})
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeTombstones(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(buf))
		}
	}
	// A count prefix promising more tombstones than the payload can hold must
	// fail fast rather than over-allocate.
	huge := wire.AppendUint(nil, 1<<40)
	if _, _, err := DecodeTombstones(huge); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("oversized count: err=%v, want ErrTruncated", err)
	}
}

// TestInsertAllLiveFiltersTombstoned pins the merge filter: descriptors of
// tombstoned nodes (and the excluded self) never enter the view, while a nil
// or empty graveyard degrades to the plain InsertAll path.
func TestInsertAllLiveFiltersTombstoned(t *testing.T) {
	batch := []Descriptor{
		{Node: 1, Stamp: 5},
		{Node: 2, Stamp: 5},
		{Node: 3, Stamp: 5},
	}
	var g Graveyard
	g.Note(Tombstone{Node: 2, Stamp: 6})

	v := NewView(8)
	v.InsertAllLive(batch, 3, &g)
	if v.Contains(2) {
		t.Fatal("tombstoned node must be filtered out of the merge")
	}
	if v.Contains(3) {
		t.Fatal("excluded self must be filtered out of the merge")
	}
	if !v.Contains(1) {
		t.Fatal("live node must be inserted")
	}

	plain := NewView(8)
	plain.InsertAllLive(batch, 0, nil)
	empty := NewView(8)
	empty.InsertAllLive(batch, 0, &Graveyard{})
	if plain.Len() != 3 || empty.Len() != 3 {
		t.Fatalf("nil/empty graveyard must not filter: len %d, %d (want 3)", plain.Len(), empty.Len())
	}

	src := NewView(8)
	src.InsertAll(batch, 0)
	fromLive := NewView(8)
	fromLive.InsertAllFromLive(src, 1, &g)
	if fromLive.Contains(2) || fromLive.Contains(1) || !fromLive.Contains(3) {
		t.Fatal("InsertAllFromLive must apply the same tombstone + exclude filter")
	}
}

// TestGraveyardMatchesSortedReference pins the incrementally sorted active
// set against a reference indexed by node id, over random Note/Expire/Clear
// sequences: same membership, freshest stamps, node-id piggyback order.
func TestGraveyardMatchesSortedReference(t *testing.T) {
	const nodes = 64
	rng := rand.New(rand.NewSource(3))
	var g Graveyard
	var stamp [nodes]int64
	var has [nodes]bool
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(20); {
		case r < 14:
			ts := Tombstone{Node: news.NodeID(rng.Intn(nodes)), Stamp: rng.Int63n(100)}
			want := !has[ts.Node] || stamp[ts.Node] < ts.Stamp
			if want {
				stamp[ts.Node], has[ts.Node] = ts.Stamp, true
			}
			if got := g.Note(ts); got != want {
				t.Fatalf("step %d: Note(%v)=%v, want %v", step, ts, got, want)
			}
		case r < 19:
			min, want := rng.Int63n(100), 0
			for id := range has {
				if has[id] && stamp[id] < min {
					has[id] = false
					want++
				}
			}
			if got := g.ExpireOlderThan(min); got != want {
				t.Fatalf("step %d: ExpireOlderThan dropped %d, want %d", step, got, want)
			}
		default:
			g.Clear()
			has = [nodes]bool{}
		}
		var want []Tombstone
		for id := range has {
			if has[id] {
				want = append(want, Tombstone{Node: news.NodeID(id), Stamp: stamp[id]})
			}
		}
		if got := g.AppendActive(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: AppendActive=%v, want %v", step, got, want)
		}
		if id := rng.Intn(nodes); g.Contains(news.NodeID(id)) != has[id] {
			t.Fatalf("step %d: Contains(%d)=%v, want %v", step, id, !has[id], has[id])
		}
	}
}
