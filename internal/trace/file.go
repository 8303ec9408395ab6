package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Legacy binary trace format (little endian):
//
//	magic   [4]byte  "RWT1"
//	count   uint64   number of references
//	refs    count × {addr uint32, pe uint8, op uint8, obj uint8, pad uint8}
//
// This mirrors the paper's Figure 1 pipeline, where the emulator writes a
// memory-reference trace file that the coherent-cache simulators consume.
// The compact chunked successor format ("RWT2" — delta/varint encoded,
// CRC-protected, streaming) lives in codec.go and is specified in
// docs/TRACE_FORMAT.md; the readers here sniff the magic and accept
// either format.

var fileMagic = [4]byte{'R', 'W', 'T', '1'}

// maxRefs bounds declared reference counts on decode, rejecting
// implausible headers before allocating.
const maxRefs = 1 << 31

// WriteTo serializes the buffer to w in the binary trace format.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.Write(fileMagic[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(b.Refs)))
	n, err = bw.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	var rec [8]byte
	for _, r := range b.Refs {
		binary.LittleEndian.PutUint32(rec[0:4], r.Addr)
		rec[4] = r.PE
		rec[5] = uint8(r.Op)
		rec[6] = uint8(r.Obj)
		rec[7] = 0
		n, err = bw.Write(rec[:])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadFrom parses a binary trace stream written by WriteTo (or, sniffed
// by magic, a compact chunked trace written by WriteCompact or a
// ChunkWriter), replacing the buffer's contents.
func (b *Buffer) ReadFrom(r io.Reader) (int64, error) {
	// Sized so NewChunkReader reuses this reader instead of stacking a
	// second buffer on top for the compact path.
	br := bufio.NewReaderSize(r, 1<<16)
	if magic, err := br.Peek(4); err == nil && [4]byte(magic) == compactMagic {
		cr, err := NewChunkReader(br)
		if err != nil {
			return 0, err
		}
		n := cr.Meta().Refs
		if n < 0 || n > maxRefs {
			n = 0
		}
		b.Refs = make([]Ref, 0, n)
		if _, err := cr.Replay(b); err != nil {
			return cr.r.n, err
		}
		return cr.r.n, nil
	}
	var read int64
	var magic [4]byte
	n, err := io.ReadFull(br, magic[:])
	read += int64(n)
	if err != nil {
		return read, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != fileMagic {
		return read, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [8]byte
	n, err = io.ReadFull(br, hdr[:])
	read += int64(n)
	if err != nil {
		return read, fmt.Errorf("trace: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	if count > maxRefs {
		return read, fmt.Errorf("trace: implausible reference count %d", count)
	}
	b.Refs = make([]Ref, 0, count)
	var rec [8]byte
	for i := uint64(0); i < count; i++ {
		n, err = io.ReadFull(br, rec[:])
		read += int64(n)
		if err != nil {
			return read, fmt.Errorf("trace: reading ref %d: %w", i, err)
		}
		b.Refs = append(b.Refs, Ref{
			Addr: binary.LittleEndian.Uint32(rec[0:4]),
			PE:   rec[4],
			Op:   Op(rec[5]),
			Obj:  ObjType(rec[6]),
		})
	}
	return read, nil
}

// ReadStream parses a legacy trace written by WriteTo (or, sniffed by
// magic, a compact chunked trace), calling sink.Add — or AddBatch for a
// BatchSink reading a compact trace — for each reference without
// materializing the trace. It returns the number of references
// delivered. A legacy header declaring zero references means the count
// is unknown (incrementally written files) and is not checked against
// the stream.
func ReadStream(r io.Reader, sink Sink) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if magic, err := br.Peek(4); err == nil && [4]byte(magic) == compactMagic {
		cr, err := NewChunkReader(br)
		if err != nil {
			return 0, err
		}
		return cr.Replay(sink)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != fileMagic {
		return 0, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: reading count: %w", err)
	}
	declared := binary.LittleEndian.Uint64(hdr[:])
	var n int64
	var rec [8]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("trace: reading ref %d: %w", n, err)
		}
		sink.Add(Ref{
			Addr: binary.LittleEndian.Uint32(rec[0:4]),
			PE:   rec[4],
			Op:   Op(rec[5]),
			Obj:  ObjType(rec[6]),
		})
		n++
	}
	if declared != 0 && int64(declared) != n {
		return n, fmt.Errorf("trace: header declares %d refs, stream has %d", declared, n)
	}
	return n, nil
}
