package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFreshLogProperty drives random scripts through a Store — inserts,
// deletes, a sealed copy deleted and inserted again, bulk batches, Compact
// and Fold, DropVertex, AddRun, MarkActive, TakeActive and TakeFresh —
// against a model of the fresh log. Whenever the log reports intact it holds
// exactly the copies Apply inserted since the last take, in order, and
// HasCopy agrees with Copies on each. It reports lost after AddRun,
// MarkActive, ActivateAll and after outgrowing the vertex count plus slack,
// and a lost log has released its storage.
func TestFreshLogProperty(t *testing.T) {
	const (
		seeds    = 20
		opsPer   = 800
		universe = 32
	)
	outgrowths := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.SetCompactMin(1 + rng.Intn(16))
		var model []EdgeCopy
		lost, outgrown := false, false
		apply := func(c Change, dir Dir) {
			changed := s.Apply(c, dir)
			if !changed || c.Action != Insert || lost {
				return
			}
			if len(model) > s.NumVertices()+flipSlack {
				lost, outgrown, model = true, true, nil
				return
			}
			model = append(model, EdgeCopy{Src: c.Src, Dst: c.Dst, Dir: dir})
		}
		randDir := func() Dir { return Dir(rng.Intn(2)) }
		check := func(op int, what string) {
			t.Helper()
			if s.freshLost != lost {
				t.Fatalf("seed %d op %d (%s): log lost=%v, model lost=%v", seed, op, what, s.freshLost, lost)
			}
			if lost && cap(s.fresh) != 0 {
				t.Fatalf("seed %d op %d (%s): lost log keeps %d entries of capacity", seed, op, what, cap(s.fresh))
			}
			if !lost && !slices.Equal(s.fresh, model) {
				t.Fatalf("seed %d op %d (%s): log %v, model %v", seed, op, what, s.fresh, model)
			}
		}
		for op := 0; op < opsPer; op++ {
			u, v := VertexID(rng.Intn(universe)), VertexID(rng.Intn(universe))
			what := "insert"
			switch k := rng.Intn(20); {
			case k < 7:
				apply(Change{Action: Insert, Src: u, Dst: v}, randDir())
			case k < 11:
				what = "delete"
				apply(Change{Action: Delete, Src: u, Dst: v}, randDir())
			case k == 11: // a sealed copy deleted, then inserted again
				what = "reinsert"
				vs := s.VertexList()
				if len(vs) == 0 {
					continue
				}
				key, dir := vs[rng.Intn(len(vs))], randDir()
				nbrs := s.AppendOut(key, nil)
				if dir == In {
					nbrs = s.AppendIn(key, nil)
				}
				if len(nbrs) == 0 {
					continue
				}
				c := EdgeCopy{Src: key, Dst: nbrs[rng.Intn(len(nbrs))], Dir: dir}
				if dir == In {
					c.Src, c.Dst = c.Dst, c.Src
				}
				s.Compact()
				apply(Change{Action: Delete, Src: c.Src, Dst: c.Dst}, c.Dir)
				apply(Change{Action: Insert, Src: c.Src, Dst: c.Dst}, c.Dir)
			case k == 12:
				what = "bulk"
				// A bulk batch: few keys, many neighbours, so it outgrows the
				// bound unless a take comes soon.
				dir := randDir()
				for i := 200 + rng.Intn(400); i > 0; i-- {
					c := Change{Src: VertexID(rng.Intn(universe)), Dst: VertexID(rng.Intn(1 << 16))}
					if dir == In {
						c.Src, c.Dst = c.Dst, c.Src
					}
					apply(c, dir)
				}
			case k == 13:
				what = "compact"
				if rng.Intn(2) == 0 {
					s.Compact()
				} else {
					s.Fold()
				}
			case k == 14:
				what = "drop"
				s.DropVertex(u)
			case k == 15:
				what = "addrun"
				s.AddRun(u+universe, randDir(), []VertexID{v, v + 1, v + 3})
				lost, model = true, nil
			case k == 16:
				what = "mark"
				if rng.Intn(4) == 0 {
					s.ActivateAll()
				} else {
					s.MarkActive(u)
				}
				lost, model = true, nil
			case k == 17:
				what = "take-active"
				s.TakeActive()
				lost, outgrown, model = false, false, nil
			default:
				what = "take-fresh"
				held := map[EdgeCopy]bool{}
				s.Copies(func(c EdgeCopy) bool { held[c] = true; return true })
				got, ok := s.TakeFresh()
				if outgrown {
					outgrowths++
				}
				if ok == lost {
					t.Fatalf("seed %d op %d: TakeFresh ok=%v, model lost=%v (outgrown %v)", seed, op, ok, lost, outgrown)
				}
				if ok && !slices.Equal(got, model) {
					t.Fatalf("seed %d op %d: TakeFresh %v, model %v", seed, op, got, model)
				}
				for _, c := range got {
					if s.HasCopy(c) != held[c] {
						t.Fatalf("seed %d op %d: HasCopy(%+v) = %v, Copies says %v", seed, op, c, !held[c], held[c])
					}
				}
				lost, outgrown, model = false, false, nil
			}
			check(op, what)
		}
	}
	if outgrowths == 0 {
		t.Fatal("no script outgrew the log's bound")
	}
}

// TestFreshLogOutgrowsItsBound checks the bound on its own: a log is
// abandoned once it outgrows the vertex count plus slack, and a take
// starts an intact one.
func TestFreshLogOutgrowsItsBound(t *testing.T) {
	s := NewStore()
	// A star: one vertex gains copies, so the vertex count stays put.
	for i := 0; i <= flipSlack+2; i++ {
		s.Apply(Change{Action: Insert, Src: 1, Dst: VertexID(2 + i%2)}, Out)
		s.Apply(Change{Action: Delete, Src: 1, Dst: VertexID(2 + i%2)}, Out)
		s.Apply(Change{Action: Insert, Src: 1, Dst: VertexID(2 + i%2)}, Out)
	}
	if copies, ok := s.TakeFresh(); ok || copies != nil {
		t.Fatalf("log of %d copies over %d vertices still intact", len(copies), s.NumVertices())
	}
	s.Apply(Change{Action: Insert, Src: 1, Dst: 9}, Out)
	if copies, ok := s.TakeFresh(); !ok || !slices.Equal(copies, []EdgeCopy{{Src: 1, Dst: 9, Dir: Out}}) {
		t.Fatalf("after a take: %v ok=%v", copies, ok)
	}
}
