package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestProfileReqRoundTrip(t *testing.T) {
	in := ProfileReq{CaptureID: 42, Kind: 3, Steps: 8, Seconds: 2.5, TraceHi: 11, TraceLo: 22}
	out, err := DecodeProfileReq(AppendProfileReq(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *out != in {
		t.Fatalf("round trip mismatch: got %+v want %+v", *out, in)
	}
}

func TestProfileChunkRoundTrip(t *testing.T) {
	in := ProfileChunk{
		CaptureID: 7, AgentID: 3, Kind: 1, Seq: 2, Total: 5,
		RunID: 9, StepStart: 10, StepEnd: 13,
		Data: []byte("profile bytes"),
	}
	out, err := DecodeProfileChunk(AppendProfileChunk(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.CaptureID != in.CaptureID || out.AgentID != in.AgentID ||
		out.Kind != in.Kind || out.Seq != in.Seq || out.Total != in.Total ||
		out.RunID != in.RunID || out.StepStart != in.StepStart ||
		out.StepEnd != in.StepEnd || out.Err != "" ||
		!bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: got %+v want %+v", *out, in)
	}
}

func TestProfileChunkErrRoundTrip(t *testing.T) {
	in := ProfileChunk{CaptureID: 7, AgentID: 3, Kind: 1, Total: 1, Err: "profiler busy"}
	out, err := DecodeProfileChunk(AppendProfileChunk(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Err != in.Err || len(out.Data) != 0 {
		t.Fatalf("round trip mismatch: got %+v want %+v", *out, in)
	}
}

func TestProfileArtifactsRoundTrip(t *testing.T) {
	in := []ProfileArtifact{
		{
			ID: 1, AgentID: 2, Kind: 1, Segment: "07-abcdef", Length: 4096,
			RunID: 3, StepStart: 4, StepEnd: 7, TraceHi: 5, TraceLo: 6,
			Verdict: "straggler", Cause: "compute-skew", WallNanos: 1700000000,
		},
		{ID: 2, AgentID: 9, Kind: 4, Segment: "07-001122", Length: 1},
	}
	out, err := DecodeProfileArtifacts(AppendProfileArtifacts(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestProfileRequestRoundTrip(t *testing.T) {
	in := ProfileRequest{
		Op: ProfileOpCapture, AgentID: 3,
		Kinds: []uint8{1, 4, 5}, Steps: 6, Seconds: 0.5, Segment: "07-aa",
	}
	out, err := DecodeProfileRequest(AppendProfileRequest(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*out, in) {
		t.Fatalf("round trip mismatch: got %+v want %+v", *out, in)
	}
}

func TestProfileReplyRoundTrip(t *testing.T) {
	in := ProfileReply{
		Err:      "",
		Captures: []uint64{10, 11, 12},
		Pending:  3,
		Artifacts: []ProfileArtifact{
			{ID: 10, AgentID: 1, Kind: 2, Segment: "07-bb", Length: 9},
		},
		Data: []byte{0x1f, 0x8b, 0x08},
	}
	out, err := DecodeProfileReply(AppendProfileReply(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *out, in)
	}
}

func TestDecodeProfileTruncated(t *testing.T) {
	// Every truncation of a valid payload must error, never panic.
	full := AppendProfileChunk(nil, &ProfileChunk{
		CaptureID: 7, AgentID: 3, Kind: 1, Seq: 0, Total: 2, Data: []byte("abcdef"),
	})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeProfileChunk(full[:i]); err == nil {
			t.Fatalf("truncation at %d decoded without error", i)
		}
	}
	fullReq := AppendProfileRequest(nil, &ProfileRequest{
		Op: ProfileOpCapture, Kinds: []uint8{1, 2}, Segment: "x",
	})
	for i := 0; i < len(fullReq); i++ {
		if _, err := DecodeProfileRequest(fullReq[:i]); err == nil {
			t.Fatalf("request truncation at %d decoded without error", i)
		}
	}
}

func TestProfileFrameTypesNamed(t *testing.T) {
	for _, typ := range []Type{TProfileReq, TReport, TProfile, TProfileReply} {
		if !typ.Valid() {
			t.Fatalf("type %d is not valid", typ)
		}
		if name := typ.String(); name == "" || name == "unknown" {
			t.Fatalf("type %d has no name", typ)
		}
	}
	if !AckedPush(TProfileReq) {
		t.Fatal("TProfileReq must be acked: a dropped request wedges the capture accounting")
	}
	if AckedPush(TReport) {
		t.Fatal("TReport, which carries the profile chunks, must stay lossy")
	}
}
