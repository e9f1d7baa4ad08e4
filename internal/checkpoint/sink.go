package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Sink is where snapshots become durable. Implementations must make
// WriteManifest atomic (a reader sees the old manifest or the new one,
// never a torn write): the manifest is the commit point of a checkpoint.
type Sink interface {
	// HasSegment reports whether a segment with this content address is
	// already durable, letting writers skip unchanged sealed segments.
	HasSegment(name string) bool
	// WriteSegment makes one content-addressed segment durable. Writing
	// a name that already exists is a no-op (content addresses never
	// collide with different payloads).
	WriteSegment(name string, kind uint8, payload []byte) error
	// ReadSegment returns the payload of a segment, verifying its
	// framing and CRC.
	ReadSegment(name string) (kind uint8, payload []byte, err error)
	// WriteManifest atomically replaces key's manifest.
	WriteManifest(key string, data []byte) error
	// ReadManifest returns key's manifest, or os.ErrNotExist.
	ReadManifest(key string) ([]byte, error)
}

// SegmentName returns the content address of a segment: the kind and the
// leading 16 bytes of the payload's SHA-256, hex-encoded. Identical
// content always maps to the same name, which is what dedups the sealed
// segment across checkpoints between compactions.
func SegmentName(kind uint8, payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%02x-%s", kind, hex.EncodeToString(sum[:16]))
}

// Segment file framing: magic, kind, payload length, CRC-32 (IEEE) of
// the payload, then the payload. The frame is validated on read so a
// truncated or bit-flipped segment fails loudly instead of restoring
// garbage.
const (
	segMagic     = 0x454C4741 // "ELGA"
	segHeaderLen = 4 + 1 + 4 + 4
	// maxSegment bounds a single segment payload (matches the wire
	// layer's frame guard).
	maxSegment = 64 << 20
)

// FrameSegment prepends the durable segment header to payload.
func FrameSegment(kind uint8, payload []byte) []byte {
	buf := make([]byte, 0, segHeaderLen+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, segMagic)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// UnframeSegment validates a durable segment frame and returns its kind
// and payload (aliasing data).
func UnframeSegment(data []byte) (kind uint8, payload []byte, err error) {
	if len(data) < segHeaderLen {
		return 0, nil, fmt.Errorf("checkpoint: segment short: %d bytes", len(data))
	}
	if binary.LittleEndian.Uint32(data) != segMagic {
		return 0, nil, fmt.Errorf("checkpoint: segment magic mismatch")
	}
	kind = data[4]
	n := int(binary.LittleEndian.Uint32(data[5:]))
	if n > maxSegment || len(data) != segHeaderLen+n {
		return 0, nil, fmt.Errorf("checkpoint: segment length %d does not match frame (%d bytes on disk)", n, len(data))
	}
	payload = data[segHeaderLen:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(data[9:]) {
		return 0, nil, fmt.Errorf("checkpoint: segment CRC mismatch")
	}
	return kind, payload, nil
}

// DirSink stores segments and manifests under a local directory:
//
//	<dir>/segments/<content-address>   framed segment payloads
//	<dir>/<key>.manifest               per-participant manifest roots
//
// Manifests are replaced atomically via write-to-temp + rename, so a
// kill at any moment leaves either the previous checkpoint or the new
// one — never a torn root.
type DirSink struct {
	dir string
}

// NewDirSink creates (if needed) and opens a directory sink.
func NewDirSink(dir string) (*DirSink, error) {
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &DirSink{dir: dir}, nil
}

// Dir returns the sink's root directory.
func (s *DirSink) Dir() string { return s.dir }

func (s *DirSink) segPath(name string) string {
	return filepath.Join(s.dir, "segments", filepath.Base(name))
}

// HasSegment reports whether the content address is already durable.
func (s *DirSink) HasSegment(name string) bool {
	_, err := os.Stat(s.segPath(name))
	return err == nil
}

// WriteSegment makes one framed segment durable.
func (s *DirSink) WriteSegment(name string, kind uint8, payload []byte) error {
	path := s.segPath(name)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return writeAtomic(path, FrameSegment(kind, payload))
}

// writeAtomic makes data durable at path through a temporary file of its own
// and a rename, so a reader never sees a partial file — and neither does a
// second writer of the same path: participants sharing a sink write the same
// content-addressed segment concurrently, and with one shared temporary name
// the loser's rename failed (its snapshot with it) or moved a file the other
// had just truncated.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadSegment loads and validates one segment.
func (s *DirSink) ReadSegment(name string) (uint8, []byte, error) {
	data, err := os.ReadFile(s.segPath(name))
	if err != nil {
		return 0, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return UnframeSegment(data)
}

func (s *DirSink) manifestPath(key string) string {
	return filepath.Join(s.dir, filepath.Base(key)+".manifest")
}

// WriteManifest atomically replaces key's manifest root. The manifest
// rides the same framing as segments (kind 0) so truncation is detected.
func (s *DirSink) WriteManifest(key string, data []byte) error {
	return writeAtomic(s.manifestPath(key), FrameSegment(0, data))
}

// ReadManifest returns key's manifest payload, or os.ErrNotExist when
// the participant has never checkpointed.
func (s *DirSink) ReadManifest(key string) ([]byte, error) {
	data, err := os.ReadFile(s.manifestPath(key))
	if err != nil {
		return nil, err
	}
	_, payload, err := UnframeSegment(data)
	return payload, err
}

// Open builds the sink a Config describes (nil when disabled).
func Open(cfg Config) (Sink, error) {
	if !cfg.Enabled {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewDirSink(cfg.Dir)
}
