package agent

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/wire"
)

// tableModel is what the vertex table must behave like: Go maps for state and
// flags, and per set the keys in the order they joined plus who is a member
// now.
type tableModel struct {
	values     map[graph.VertexID]algorithm.Word
	registered map[graph.VertexID]bool
	member     [2]map[graph.VertexID]bool
	joined     [2][]graph.VertexID
}

func newTableModel() *tableModel {
	return &tableModel{
		values:     map[graph.VertexID]algorithm.Word{},
		registered: map[graph.VertexID]bool{},
		member:     [2]map[graph.VertexID]bool{{}, {}},
	}
}

// live counts the keys that hold something.
func (m *tableModel) live() int {
	keys := map[graph.VertexID]bool{}
	for v := range m.values {
		keys[v] = true
	}
	for v, on := range m.registered {
		if on {
			keys[v] = true
		}
	}
	for k := range m.member {
		for v := range m.member[k] {
			keys[v] = true
		}
	}
	return len(keys)
}

// walk is set k as a walker sees it: joining order, current members only.
func (m *tableModel) walk(k int) []graph.VertexID {
	var out []graph.VertexID
	for _, v := range m.joined[k] {
		if m.member[k][v] {
			out = append(out, v)
		}
	}
	return lastOnly(out)
}

// lastOnly keeps the last occurrence of every key. A vertex that left a set
// (del) and joined it again is listed twice until a rebuild drops the stale
// entry; a walk sees the same members either way, and their latest joining
// order is what does not depend on when the rebuild came.
func lastOnly(vs []graph.VertexID) []graph.VertexID {
	seen := map[graph.VertexID]bool{}
	var out []graph.VertexID
	for i := len(vs) - 1; i >= 0; i-- {
		if !seen[vs[i]] {
			seen[vs[i]] = true
			out = append(out, vs[i])
		}
	}
	slices.Reverse(out)
	return out
}

func tableWalk(t *vertexTable, k int) []graph.VertexID {
	var out []graph.VertexID
	for _, i := range t.list[k] {
		if t.in(k, i) {
			out = append(out, t.slots[i].key)
		}
	}
	return out
}

// checkTable compares every observable of tab with the model.
func checkTable(t *testing.T, script, op int, tab *vertexTable, m *tableModel, keys []graph.VertexID) {
	t.Helper()
	if 2*tab.used > len(tab.slots) {
		t.Fatalf("script %d op %d: %d records in %d slots, above half", script, op, tab.used, len(tab.slots))
	}
	for _, v := range keys {
		w, ok := tab.get(v)
		if mw, mok := m.values[v]; ok != mok || w != mw {
			t.Fatalf("script %d op %d: get(%d) = %d/%v, model %d/%v", script, op, v, w, ok, mw, mok)
		}
		if tab.flag(v, recRegistered) != m.registered[v] {
			t.Fatalf("script %d op %d: registered(%d) = %v, model %v", script, op, v, !m.registered[v], m.registered[v])
		}
		for k := range m.member {
			i := tab.find(v)
			if in := i >= 0 && tab.in(k, uint32(i)); in != m.member[k][v] {
				t.Fatalf("script %d op %d: %d in set %d = %v, model %v", script, op, v, k, in, m.member[k][v])
			}
		}
	}
	for k := range m.member {
		if got, want := lastOnly(tableWalk(tab, k)), m.walk(k); !slices.Equal(got, want) {
			t.Fatalf("script %d op %d: set %d walks %v, model %v", script, op, k, got, want)
		}
	}
	seen := map[graph.VertexID]algorithm.Word{}
	tab.each(func(v graph.VertexID, w algorithm.Word) {
		if _, dup := seen[v]; dup {
			t.Fatalf("script %d op %d: each visited %d twice", script, op, v)
		}
		seen[v] = w
	})
	if len(seen) != len(m.values) {
		t.Fatalf("script %d op %d: each visited %d states, model holds %d", script, op, len(seen), len(m.values))
	}
	for v, w := range seen {
		if m.values[v] != w {
			t.Fatalf("script %d op %d: each sees %d = %d, model %d", script, op, v, w, m.values[v])
		}
	}
}

// TestVertexTableMatchesMapModel runs 320 seeded scripts of set / get / del /
// mark / begin / flag edits against Go maps, through several growths each,
// every other script starting a breath away from a generation wrap so the
// wrap lands mid-script with members standing. After each script a forced
// rebuild must leave exactly the records that hold something.
func TestVertexTableMatchesMapModel(t *testing.T) {
	for script := 0; script < 320; script++ {
		rng := rand.New(rand.NewSource(int64(1000 + script)))
		var tab vertexTable
		m := newTableModel()
		if script%2 == 1 {
			tab.gen = [2]uint16{math.MaxUint16 - uint16(rng.Intn(3)), math.MaxUint16 - uint16(rng.Intn(3))}
		}
		keys := make([]graph.VertexID, 300+rng.Intn(900))
		for i := range keys {
			k := graph.VertexID(i)
			if i%3 == 0 {
				k <<= 40 // sparse and clustered keys, key 0 among them
			}
			keys[i] = k
		}
		ops, widest := 6*len(keys), 0
		for op := 0; op < ops; op++ {
			widest = max(widest, len(tab.slots))
			v := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(100); {
			case r < 30:
				w := algorithm.Word(rng.Uint64())
				tab.set(v, w)
				m.values[v] = w
			case r < 45:
				tab.del(v)
				delete(m.values, v)
				delete(m.registered, v)
				delete(m.member[setActive], v)
				delete(m.member[setWork], v)
			case r < 80:
				k := rng.Intn(2)
				tab.mark(k, tab.at(v))
				if !m.member[k][v] {
					m.member[k][v] = true
					m.joined[k] = append(m.joined[k], v)
				}
			case r < 83:
				k := rng.Intn(2)
				tab.begin(k)
				m.member[k], m.joined[k] = map[graph.VertexID]bool{}, nil
			case r < 90:
				i := tab.at(v)
				tab.slots[i].flags |= recRegistered
				m.registered[v] = true
			case r < 94:
				if i := tab.find(v); i >= 0 {
					tab.slots[i].flags &^= recRegistered
				}
				delete(m.registered, v)
			case r < 95:
				tab.drop(recRegistered)
				m.registered = map[graph.VertexID]bool{}
			case r < 96:
				tab.drop(recValue)
				m.values = map[graph.VertexID]algorithm.Word{}
			default:
				tab.rebuild()
			}
			if op%64 == 0 || op == ops-1 {
				checkTable(t, script, op, &tab, m, keys)
			}
		}
		if widest < 4*64 {
			t.Fatalf("script %d: the table only reached %d slots; the test wants growths", script, widest)
		}
		tab.rebuild()
		if live := m.live(); tab.used != live {
			t.Fatalf("script %d: a rebuild left %d records, %d hold something", script, tab.used, live)
		}
		checkTable(t, script, ops, &tab, m, keys)
	}
}

// TestVertexTableGenerationWrap: the 2^16th begin must not bring back members
// stamped with the generation the counter wraps onto.
func TestVertexTableGenerationWrap(t *testing.T) {
	for k := 0; k < 2; k++ {
		var tab vertexTable
		tab.mark(k, tab.at(7)) // generation 1
		tab.begin(k)
		tab.gen[k] = math.MaxUint16
		tab.mark(k, tab.at(8))
		tab.begin(k) // wraps onto 1 again
		for _, v := range []graph.VertexID{7, 8} {
			if tab.in(k, uint32(tab.find(v))) {
				t.Fatalf("set %d: vertex %d is a member again after the wrap", k, v)
			}
		}
		tab.mark(k, tab.at(9))
		if got := tableWalk(&tab, k); !slices.Equal(got, []graph.VertexID{9}) {
			t.Fatalf("set %d after the wrap walks %v, want [9]", k, got)
		}
	}
}

// TestVertexTableReclaimsUnderChurn drives 40 join + leave cycles over an
// R-MAT-12 graph held by one agent: a new member joins and is shipped its
// share, then leaves, and what it was shipped comes back under new vertex
// IDs — so every cycle retires about half the keys for good, the way a
// changing graph under a changing membership does. The table must stay sized
// by what is live: no state of a vertex that left, and no more records than
// twice the next power of two of those that hold something.
func TestVertexTableReclaimsUnderChurn(t *testing.T) {
	r := newMigrationRig(t)
	a := r.a
	const noHub = graph.VertexID(1) << 50
	epoch := uint64(2)
	a.handleView(r.view(t, epoch, noHub, 1))
	for _, e := range gen.RMAT(12, 8<<12, gen.Graph500Params(), 7) {
		a.store.AddEdge(e.Src, e.Dst, graph.Out)
		a.store.AddEdge(e.Src, e.Dst, graph.In)
	}
	a.store.Vertices(func(v graph.VertexID) bool {
		a.verts.set(v, algorithm.Word(v))
		return true
	})
	retired := 0
	for cycle := 1; cycle <= 40; cycle++ {
		joiner := uint64(cycle + 1) // a new place on the ring every cycle
		r.peers[joiner] = fmt.Sprintf("peer-%d", joiner)
		epoch++
		a.handleView(r.view(t, epoch, noHub, 1, joiner))
		r.drain(t)
		epoch++
		a.handleView(r.view(t, epoch, noHub, 1))
		r.drain(t)
		rename := func(v graph.VertexID) graph.VertexID {
			return v&(1<<32-1) | graph.VertexID(cycle)<<32
		}
		shipped := 0
		for _, b := range r.received(joiner) {
			for i := range b.Runs {
				b.Runs[i].Key = rename(b.Runs[i].Key)
				shipped += len(b.Runs[i].Nbrs)
			}
			for i := range b.States {
				b.States[i].Vertex = rename(b.States[i].Vertex)
			}
			retired += len(b.States)
			a.applyRuns(b.Runs, &ackGroup{}, stateIndex(b.States))
		}
		if shipped == 0 {
			t.Fatalf("cycle %d: the joiner was shipped nothing", cycle)
		}
	}
	tab := &a.verts
	live := 0
	for i := range tab.slots {
		if tab.holds(&tab.slots[i]) {
			live++
		}
	}
	if present := a.store.NumVertices(); live != present {
		t.Fatalf("%d records hold something, %d vertices are present", live, present)
	}
	tab.each(func(v graph.VertexID, w algorithm.Word) {
		if !a.store.HasVertex(v) || w != algorithm.Word(v&(1<<32-1)) {
			t.Fatalf("vertex %d: state %d, present %v", v, w, a.store.HasVertex(v))
		}
	})
	if retired < 10*live {
		t.Fatalf("only %d keys were retired over 40 cycles, %d are live: not much of a churn", retired, live)
	}
	if bound := 2 << bits.Len(uint(live-1)); tab.used > bound {
		t.Fatalf("after 40 cycles the table holds %d records for %d live ones, want at most %d", tab.used, live, bound)
	}
}

// TestWorkListIsAFunctionOfTheInput: two agents given the same graph build
// the same work list step after step — the step-0 walk of
// the store's map and the split list are sorted, everything after follows
// from the order of the calls — for an always-active program and for one
// whose frontier moves.
func TestWorkListIsAFunctionOfTheInput(t *testing.T) {
	for _, prog := range []algorithm.Program{algorithm.PageRank{}, algorithm.WCC{}} {
		var runs [2][][]graph.VertexID
		for i := range runs {
			a, _ := newHubAgent(t, 8)
			for _, e := range gen.RMAT(9, 4<<9, gen.Graph500Params(), 3) {
				a.store.AddEdge(e.Src, e.Dst, graph.Out)
				a.store.AddEdge(e.Src, e.Dst, graph.In)
			}
			a.store.Compact()
			installRun(a, prog, 1<<9)
			for step := uint32(0); step < 5; step++ {
				advanceCompute(a, step)
				runs[i] = append(runs[i], tableWalk(&a.verts, setWork))
				advanceCombine(a, step)
			}
		}
		for step := range runs[0] {
			if len(runs[0][step]) == 0 {
				t.Fatalf("%s step %d: empty work list", prog.Name(), step)
			}
			if !slices.Equal(runs[0][step], runs[1][step]) {
				t.Fatalf("%s step %d: the two agents' work lists differ", prog.Name(), step)
			}
		}
	}
}

// TestLocalSplitsFollowsViewAndStore: the cached split list equals a walk of
// the store through every way its inputs move — a copy of a split vertex
// migrating in under the installed view, a pin of an absent one, a sketch
// that splits another held vertex between two runs — and a compute phase of
// an always-active program works every vertex on it.
func TestLocalSplitsFollowsViewAndStore(t *testing.T) {
	a, hubs := newHubAgent(t, 10)
	walk := func() []graph.VertexID {
		var out []graph.VertexID
		a.store.Vertices(func(v graph.VertexID) bool {
			if a.router.Split(v) {
				out = append(out, v)
			}
			return true
		})
		slices.Sort(out)
		return out
	}
	check := func(when string, want int) {
		t.Helper()
		got := slices.Clone(a.localSplits())
		if w := walk(); !slices.Equal(got, w) || len(got) != want {
			t.Fatalf("%s: split list %v, the store holds %v (want %d)", when, got, w, want)
		}
	}
	// Two of the hubs leave the store first: they come back below.
	arriving, pinned := hubs[8], hubs[9]
	a.store.DropVertex(arriving)
	a.store.DropVertex(pinned)
	installRun(a, algorithm.PageRank{}, 1<<16)
	check("first use", 8)

	w := graph.VertexID(200000)
	for ; ; w++ {
		if owner, _ := a.router.EdgeOwner(arriving, w); uint64(owner) == a.id {
			break
		}
	}
	a.applyRuns([]wire.EdgeRun{{Key: arriving, Dir: graph.Out, Nbrs: []graph.VertexID{w}}}, &ackGroup{}, nil)
	check("a split vertex migrated in", 9)
	a.store.Pin(pinned)
	check("a split vertex was pinned", 10)

	// Between two runs a seal's sketch splits a plain held vertex.
	plain := graph.VertexID(1)
	a.store.AddEdge(plain, 2, graph.Out)
	sk := a.opts.Config.NewSketch()
	for _, h := range append(hubs, plain) {
		sk.AddN(uint64(h), 48)
	}
	view := &wire.View{Epoch: 4, BatchID: 4, N: 1 << 16, Sketch: sk.AppendBinary(nil), Agents: []wire.AgentInfo{
		{ID: 1, Addr: a.ep.Addr()}, {ID: 2, Addr: "nobody-2"}, {ID: 3, Addr: "nobody-3"},
	}}
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	installRun(a, algorithm.PageRank{}, 1<<16)
	a.run.id = 2
	check("a seal split another vertex", 11)

	advanceCompute(a, 0)
	worked := tableWalk(&a.verts, setWork)
	for _, v := range walk() {
		if !slices.Contains(worked, v) {
			t.Fatalf("split vertex %d is not on the phase's work list", v)
		}
	}
}
