package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"elga/internal/graph"
)

// walkReplicaPartials and walkValueUpdates are the receiver's record walk
// (count, then each record by index) in the shape the tests share.
func walkReplicaPartials(data []byte, fn func(ReplicaPartial)) error {
	n, err := ReplicaPartialCount(data)
	for i := 0; i < n; i++ {
		fn(ReplicaPartialAt(data, i))
	}
	return err
}

func walkValueUpdates(data []byte, fn func(ValueUpdate)) error {
	n, err := ValueUpdateCount(data)
	for i := 0; i < n; i++ {
		fn(ValueUpdateAt(data, i))
	}
	return err
}

func testPartial(i int) ReplicaPartial {
	return ReplicaPartial{
		Step: uint32(2 + i/100), Vertex: graph.VertexID(11 * (i + 1)), Agg: Word(22 + i),
		HaveMsgs: i%2 == 0, LocalOutDeg: uint64(9 + i),
	}
}

func testUpdate(i int) ValueUpdate {
	return ValueUpdate{
		Step: uint32(1 + i/100), Vertex: graph.VertexID(2 * (i + 1)), State: Word(3 + i),
		TotalOutDeg: uint64(4 + i), Scatter: i%3 != 0,
	}
}

// TestRecordListRoundTrip: 1, 2 and 300 records appended back to back come
// out of the walk in order and unchanged, for both payloads.
func TestRecordListRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 300} {
		var pb, ub []byte
		for i := 0; i < n; i++ {
			p, u := testPartial(i), testUpdate(i)
			pb, ub = AppendReplicaPartial(pb, &p), AppendValueUpdate(ub, &u)
		}
		if len(pb) != n*replicaPartialSize || len(ub) != n*valueUpdateSize {
			t.Fatalf("n=%d: payloads are %d and %d bytes", n, len(pb), len(ub))
		}
		i := 0
		if err := walkReplicaPartials(pb, func(p ReplicaPartial) {
			if p != testPartial(i) {
				t.Fatalf("n=%d partial %d: %+v != %+v", n, i, p, testPartial(i))
			}
			i++
		}); err != nil || i != n {
			t.Fatalf("n=%d: walked %d partials, err %v", n, i, err)
		}
		i = 0
		if err := walkValueUpdates(ub, func(u ValueUpdate) {
			if u != testUpdate(i) {
				t.Fatalf("n=%d update %d: %+v != %+v", n, i, u, testUpdate(i))
			}
			i++
		}); err != nil || i != n {
			t.Fatalf("n=%d: walked %d updates, err %v", n, i, err)
		}
	}
}

// TestRecordListRejectsPartialRecord: a payload that is empty or ends inside
// a record is an error and yields no record, never a silent truncation.
func TestRecordListRejectsPartialRecord(t *testing.T) {
	var pb, ub []byte
	for i := 0; i < 3; i++ {
		p, u := testPartial(i), testUpdate(i)
		pb, ub = AppendReplicaPartial(pb, &p), AppendValueUpdate(ub, &u)
	}
	for _, cut := range []int{0, 1, replicaPartialSize - 1, replicaPartialSize + 1, len(pb) - 1} {
		seen := 0
		err := walkReplicaPartials(pb[:cut], func(ReplicaPartial) { seen++ })
		if !errors.Is(err, ErrShort) || seen != 0 {
			t.Fatalf("partials cut at %d: err %v, %d records walked", cut, err, seen)
		}
	}
	for _, cut := range []int{0, 1, valueUpdateSize - 1, valueUpdateSize + 1, len(ub) - 1} {
		seen := 0
		err := walkValueUpdates(ub[:cut], func(ValueUpdate) { seen++ })
		if !errors.Is(err, ErrShort) || seen != 0 {
			t.Fatalf("updates cut at %d: err %v, %d records walked", cut, err, seen)
		}
	}
}

// One record of each type, byte for byte: step, vertex, aggregate or state,
// then the flag and out-degree fields in their pinned order.
const (
	partialHex = "02000000" + "0b00000000000000" + "1600000000000000" + "01" +
		"0900000000000000"
	updateHex = "01000000" + "0200000000000000" + "0300000000000000" +
		"0400000000000000" + "01"
	// The 37-byte partial of the layout that still carried an unread
	// message count between HaveMsgs and LocalOutDeg.
	countedPartialHex = "02000000" + "0b00000000000000" + "1600000000000000" + "01" +
		"0500000000000000" + "0900000000000000"
)

// TestSingleRecordPayloadUnchanged: a one-record payload is byte-identical
// to the single-record encoding, in both directions.
func TestSingleRecordPayloadUnchanged(t *testing.T) {
	p := ReplicaPartial{Step: 2, Vertex: 11, Agg: 22, HaveMsgs: true, LocalOutDeg: 9}
	u := ValueUpdate{Step: 1, Vertex: 2, State: 3, TotalOutDeg: 4, Scatter: true}
	pb, _ := hex.DecodeString(partialHex)
	ub, _ := hex.DecodeString(updateHex)
	if got := AppendReplicaPartial(nil, &p); !bytes.Equal(got, pb) {
		t.Fatalf("partial encodes to %x, was %x", got, pb)
	}
	if got := AppendValueUpdate(nil, &u); !bytes.Equal(got, ub) {
		t.Fatalf("update encodes to %x, was %x", got, ub)
	}
	if n, err := ReplicaPartialCount(pb); err != nil || n != 1 || ReplicaPartialAt(pb, 0) != p {
		t.Fatalf("partial decodes to %d records, err %v, %+v", n, err, ReplicaPartialAt(pb, 0))
	}
	if n, err := ValueUpdateCount(ub); err != nil || n != 1 || ValueUpdateAt(ub, 0) != u {
		t.Fatalf("update decodes to %d records, err %v, %+v", n, err, ValueUpdateAt(ub, 0))
	}
}

// TestCountedPartialRefused: a record of the 37-byte layout is not a whole
// number of 29-byte records, so the walk refuses it instead of misreading it.
func TestCountedPartialRefused(t *testing.T) {
	pb, _ := hex.DecodeString(countedPartialHex)
	seen := 0
	err := walkReplicaPartials(pb, func(ReplicaPartial) { seen++ })
	if !errors.Is(err, ErrShort) || seen != 0 || !strings.Contains(err.Error(), "37 bytes is not a whole number of 29-byte records") {
		t.Fatalf("37-byte partial: err %v, %d records walked", err, seen)
	}
}
