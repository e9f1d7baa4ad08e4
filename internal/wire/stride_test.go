package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"elga/internal/graph"
)

// refAppendVertexMsgBatch and refAppendEdgeBatch are the per-field
// encoders the fixed-stride ones replaced, kept as the byte reference.
func refAppendVertexMsgBatch(dst []byte, b *VertexMsgBatch) []byte {
	w := Writer{buf: dst}
	w.U32(b.Step)
	w.Bool(b.Async)
	w.U32(uint32(len(b.Msgs)))
	for _, m := range b.Msgs {
		w.U64(uint64(m.Target))
		w.U64(uint64(m.Via))
		w.U64(uint64(m.Value))
	}
	return w.buf
}

func refAppendEdgeBatch(dst []byte, b *EdgeBatch) []byte {
	w := Writer{buf: dst}
	w.U64(b.Epoch)
	w.Bool(b.Migration)
	w.U32(uint32(len(b.Changes)))
	for _, c := range b.Changes {
		w.U8(uint8(c.Action)<<1 | uint8(c.Dir))
		w.U64(uint64(c.Src))
		w.U64(uint64(c.Dst))
	}
	w.U32(uint32(len(b.States)))
	for _, s := range b.States {
		w.U64(uint64(s.Vertex))
		w.U64(uint64(s.State))
		var flags uint8
		if s.Active {
			flags |= stateActive
		}
		if s.NoValue {
			flags |= stateNoValue
		}
		w.U8(flags)
	}
	w.U32(uint32(len(b.Runs)))
	for _, r := range b.Runs {
		w.U64(uint64(r.Key))
		w.U8(uint8(graph.Insert)<<1 | uint8(r.Dir))
		w.U32(uint32(len(r.Nbrs)))
		for _, v := range r.Nbrs {
			w.U64(uint64(v))
		}
	}
	return w.buf
}

// strideSizes are the record counts the byte-identity tests draw: empty,
// one, either side of a power of two, and past the old preallocation cap.
var strideSizes = []int{0, 1, 255, 256, 4097}

func randVertexMsgBatch(rng *rand.Rand, n int, async bool) *VertexMsgBatch {
	b := &VertexMsgBatch{Step: rng.Uint32(), Async: async, Msgs: make([]VertexMsg, n)}
	for i := range b.Msgs {
		b.Msgs[i] = VertexMsg{Target: graph.VertexID(rng.Uint64()), Via: graph.VertexID(rng.Uint64()), Value: Word(rng.Uint64())}
	}
	return b
}

// randEdgeBatch draws n changes cycling through every action/dir tag, n
// states cycling through every flag combination, and a few runs.
func randEdgeBatch(rng *rand.Rand, n int, migration bool) *EdgeBatch {
	b := &EdgeBatch{Epoch: rng.Uint64(), Migration: migration}
	for i := 0; i < n; i++ {
		b.Changes = append(b.Changes, EdgeChange{
			Action: graph.Action(i >> 1 & 1), Dir: graph.Dir(i & 1),
			Src: graph.VertexID(rng.Uint64()), Dst: graph.VertexID(rng.Uint64()),
		})
		b.States = append(b.States, VertexState{
			Vertex: graph.VertexID(rng.Uint64()), State: Word(rng.Uint64()),
			Active: i&1 != 0, NoValue: i&2 != 0,
		})
	}
	for k := 0; k < n%7; k++ {
		r := EdgeRun{Key: graph.VertexID(rng.Uint64()), Dir: graph.Dir(k & 1)}
		for v := graph.VertexID(rng.Intn(5)); len(r.Nbrs) < 1+rng.Intn(40); v += 1 + graph.VertexID(rng.Intn(9)) {
			r.Nbrs = append(r.Nbrs, v)
		}
		b.Runs = append(b.Runs, r)
	}
	return b
}

// The fixed-stride encoders write the per-field encoders' bytes, appended
// after whatever dst held, and the decoders read them back.
func TestVertexMsgBatchMatchesPerFieldEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got VertexMsgBatch
	for _, n := range strideSizes {
		for _, async := range []bool{false, true} {
			b := randVertexMsgBatch(rng, n, async)
			prefix := []byte{0xaa, 0xbb}
			enc := AppendVertexMsgBatch(slices.Clone(prefix), b)
			if want := refAppendVertexMsgBatch(slices.Clone(prefix), b); !bytes.Equal(enc, want) {
				t.Fatalf("%d msgs, async %v: encodings differ", n, async)
			}
			if len(enc) != len(prefix)+9+vertexMsgSize*n {
				t.Fatalf("%d msgs: %d bytes", n, len(enc))
			}
			if err := DecodeVertexMsgBatchInto(&got, enc[len(prefix):]); err != nil {
				t.Fatal(err)
			}
			if got.Step != b.Step || got.Async != async || !slices.Equal(got.Msgs, b.Msgs) {
				t.Fatalf("%d msgs, async %v: decoded a different batch", n, async)
			}
		}
	}
}

func TestEdgeBatchMatchesPerFieldEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var got EdgeBatch
	for _, n := range strideSizes {
		for _, migration := range []bool{false, true} {
			b := randEdgeBatch(rng, n, migration)
			prefix := []byte{0xcc}
			enc := AppendEdgeBatch(slices.Clone(prefix), b)
			if want := refAppendEdgeBatch(slices.Clone(prefix), b); !bytes.Equal(enc, want) {
				t.Fatalf("%d changes, %d runs: encodings differ", n, len(b.Runs))
			}
			if err := DecodeEdgeBatchInto(&got, enc[len(prefix):]); err != nil {
				t.Fatal(err)
			}
			if got.Epoch != b.Epoch || got.Migration != migration || !slices.Equal(got.Changes, b.Changes) ||
				!slices.Equal(got.States, b.States) || len(got.Runs) != len(b.Runs) {
				t.Fatalf("%d changes: decoded a different batch", n)
			}
			for i, r := range got.Runs {
				if r.Key != b.Runs[i].Key || r.Dir != b.Runs[i].Dir || !slices.Equal(r.Nbrs, b.Runs[i].Nbrs) {
					t.Fatalf("run %d: %+v, want %+v", i, r, b.Runs[i])
				}
			}
		}
	}
}

// forgedCounts are payloads whose record counts the bytes after them cannot
// hold. A decoder that skipped a count it thought too large decoded the
// first two as an empty batch without error.
func forgedCounts() map[string]struct {
	typ  Type
	data []byte
} {
	vmsgs := func(n uint32, body int) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{7, 0, 0, 0, 0}, n), make([]byte, body)...)
	}
	edges := func(changes, states uint32) []byte {
		b := binary.LittleEndian.AppendUint32(make([]byte, 9), changes)
		if changes == 0 {
			b = binary.LittleEndian.AppendUint32(b, states)
		}
		return append(b, make([]byte, 8)...)
	}
	return map[string]struct {
		typ  Type
		data []byte
	}{
		"msgs 1<<26 in 9 bytes":    {TVertexMsgs, vmsgs(1<<26, 0)},
		"changes 1<<30 in 21":      {TEdges, edges(1<<30, 0)},
		"msgs 1<<32-1":             {TVertexMsgs, vmsgs(1<<32-1, 48)},
		"msgs one byte short":      {TVertexMsgs, vmsgs(3, 3*vertexMsgSize-1)},
		"states 1<<30":             {TEdges, edges(0, 1<<30)},
		"changes one record short": {TEdges, append(binary.LittleEndian.AppendUint32(make([]byte, 9), 2), make([]byte, 2*changeSize-1)...)},
	}
}

func decodeForged(typ Type, data []byte, vb *VertexMsgBatch, eb *EdgeBatch) error {
	if typ == TVertexMsgs {
		return DecodeVertexMsgBatchInto(vb, data)
	}
	return DecodeEdgeBatchInto(eb, data)
}

// A count the payload cannot hold is ErrShort, never a batch.
func TestDecodeRefusesForgedCounts(t *testing.T) {
	for name, c := range forgedCounts() {
		var vb VertexMsgBatch
		var eb EdgeBatch
		if err := decodeForged(c.typ, c.data, &vb, &eb); !errors.Is(err, ErrShort) {
			t.Errorf("%s (%d bytes): %v, want ErrShort", name, len(c.data), err)
		}
	}
}

// Refusing a forged count costs nothing: the section's length is checked
// before anything is sized, so an empty batch stays unallocated.
func TestDecodeForgedCountAllocs(t *testing.T) {
	for name, c := range forgedCounts() {
		allocs := testing.AllocsPerRun(50, func() {
			var vb VertexMsgBatch
			var eb EdgeBatch
			if decodeForged(c.typ, c.data, &vb, &eb) == nil {
				t.Fatalf("%s: accepted", name)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkEncodeEdgeBatch and BenchmarkDecodeEdgeBatch time a 1000-change
// stream batch, the shape of the benchmark's wire.*_edgebatch1k_ns rows.
func BenchmarkEncodeEdgeBatch(b *testing.B) {
	batch := randEdgeBatch(rand.New(rand.NewSource(3)), 1000, false)
	batch.States, batch.Runs = nil, nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReleaseFrame(AppendEdgeBatch(GetFrame(32<<10), batch))
	}
}

func BenchmarkDecodeEdgeBatch(b *testing.B) {
	batch := randEdgeBatch(rand.New(rand.NewSource(3)), 1000, false)
	batch.States, batch.Runs = nil, nil
	data := EncodeEdgeBatch(batch)
	var scratch EdgeBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeEdgeBatchInto(&scratch, data); err != nil {
			b.Fatal(err)
		}
	}
}
