package trace

// The compact chunked trace codec ("RWT2"), the persistent form of a
// reference stream. The full byte-level specification lives in
// docs/TRACE_FORMAT.md; in outline a compact trace is
//
//	header  — self-describing: magic, codec version, run parameters
//	          (benchmark, PEs, sequential, emulator version) and the
//	          Table 1 object-type name table, CRC-protected;
//	chunks  — up to 8192 references each, individually CRC-protected,
//	          each independently decodable: within a chunk a reference
//	          costs one tag byte (op, object type, same-PE flag), an
//	          optional PE byte on PE switches, and a zigzag varint
//	          delta of the address against the previous address *of the
//	          same PE* (per-PE delta state, reset per chunk);
//	footer  — total and per-PE reference counts, CRC-protected, written
//	          after the end-of-chunks marker so a streaming writer never
//	          needs to know the trace length up front.
//
// Emission order is preserved exactly: chunks concatenate to the
// original stream, so replaying a decoded trace is bit-identical to
// replaying the live engine's stream. Compared to fixed 8-byte
// records, RAP-WAM traces encode in roughly 2 bytes per reference
// because consecutive same-PE references are address-
// local (stack discipline) and PE switches come in runs.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// compactMagic opens a compact chunked trace file.
var compactMagic = [4]byte{'R', 'W', 'T', '2'}

// maxRefs bounds declared reference counts on decode, rejecting
// implausible headers before allocating.
const maxRefs = 1 << 31

// CodecVersion is the version byte written into compact trace headers.
// It changes only when the byte-level encoding changes incompatibly;
// readers reject other versions.
const CodecVersion = 1

// codec limits: chunk framing fields are validated against these before
// any allocation, so a corrupt or adversarial file cannot demand
// unbounded memory.
const (
	// codecChunkRefs is the number of references per chunk written by
	// ChunkWriter (readers accept any count up to maxChunkRefs).
	codecChunkRefs = 8192
	// maxChunkRefs bounds the per-chunk reference count accepted on
	// decode.
	maxChunkRefs = 1 << 20
	// maxHeaderString bounds header string fields on decode.
	maxHeaderString = 1 << 12
	// maxEncodedRefBytes is the worst-case encoding of one reference:
	// tag byte + PE byte + 5-byte varint address delta.
	maxEncodedRefBytes = 7
)

// Meta describes a compact trace: the run that produced it and, once
// fully written or read, its reference counts. It is the self-describing
// part of the on-disk header plus the footer totals.
type Meta struct {
	// Benchmark names the workload that produced the trace ("qsort",
	// or "" for a non-benchmark run).
	Benchmark string
	// PEs is the number of processing elements the run used.
	PEs int
	// Sequential reports whether CGEs were compiled away (the WAM
	// baseline run).
	Sequential bool
	// EmulatorVersion identifies the engine build that generated the
	// trace (core.EmulatorVersion at write time). Trace content is a
	// pure function of (benchmark, PEs, sequential, emulator version).
	EmulatorVersion string
	// Refs is the total reference count. Writers may leave it zero
	// (unknown, e.g. streaming); the decoder fills it from the footer.
	Refs int64
	// PerPE is the per-PE reference count table (one entry per PE),
	// filled from the footer on decode and accumulated on encode.
	PerPE []int64
	// ObjTypes is the Table 1 object-type name table the trace was
	// written against, making the classification self-describing. The
	// decoder rejects traces whose table does not match this build's.
	ObjTypes []string
}

// currentObjTypeNames returns this build's Table 1 name table, indexed
// by ObjType (including ObjNone).
func currentObjTypeNames() []string {
	names := make([]string, NumObjTypes)
	for t := 0; t < NumObjTypes; t++ {
		names[t] = ObjType(t).String()
	}
	return names
}

// appendUvarint appends v as an unsigned varint.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// zigzag maps a signed delta onto an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Tag byte layout (one per reference):
//
//	bit 0    — op (0 read, 1 write)
//	bits 1-5 — object type (0-31)
//	bit 6    — same PE as the previous reference in this chunk
//	bit 7    — reserved, must be zero
const (
	tagOpWrite = 1 << 0
	tagObjMask = 0x1f << 1
	tagSamePE  = 1 << 6
)

// ChunkWriter encodes a reference stream into the compact chunked
// format. It implements Sink and BatchSink, so it can be attached
// directly to a running engine (RunConfig.Sink), fed from a Buffer, or
// driven by the fan-out dispatcher. Like every Sink it is
// single-goroutine. The stream must be terminated with Close, which
// writes the end marker and the footer and flushes buffered bytes.
type ChunkWriter struct {
	w    *bufio.Writer
	out  io.Writer // the underlying writer, for header back-patching
	meta Meta
	// rawHdr is the header without its CRC; refsOff locates the fixed
	// 8-byte reference-count field inside it for Close's back-patch.
	rawHdr  []byte
	refsOff int
	chunk   []Ref
	enc     []byte
	perPE   []int64
	total   int64
	err     error
	closed  bool
}

// NewChunkWriter writes the compact header for meta and returns the
// writer. meta.Refs may be zero (unknown); the true counts go into the
// footer at Close. meta.ObjTypes and meta.PerPE are ignored — the
// writer always records this build's object table and its own counts.
func NewChunkWriter(w io.Writer, meta Meta) (*ChunkWriter, error) {
	if meta.PEs <= 0 {
		meta.PEs = 1
	}
	if meta.PEs > 256 {
		return nil, fmt.Errorf("trace: %d PEs exceed the codec's 256-PE limit", meta.PEs)
	}
	meta.ObjTypes = currentObjTypeNames()
	cw := &ChunkWriter{
		w:     bufio.NewWriterSize(w, 1<<16),
		out:   w,
		meta:  meta,
		chunk: make([]Ref, 0, codecChunkRefs),
		enc:   make([]byte, 0, codecChunkRefs*3),
		perPE: make([]int64, meta.PEs),
	}
	cw.rawHdr, cw.refsOff = compactHeader(meta)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(cw.rawHdr))
	if _, err := cw.w.Write(cw.rawHdr); err != nil {
		return nil, err
	}
	if _, err := cw.w.Write(crc[:]); err != nil {
		return nil, err
	}
	return cw, nil
}

// compactHeader builds the compact-format header for meta (without its
// trailing CRC) and returns it along with the offset of the fixed
// 8-byte reference-count field, which Close back-patches on a seekable
// writer once the streamed count is known. Shared by ChunkWriter and
// ParallelChunkWriter so the two emit byte-identical headers.
func compactHeader(meta Meta) (hdr []byte, refsOff int) {
	hdr = make([]byte, 0, 256)
	hdr = append(hdr, compactMagic[:]...)
	hdr = append(hdr, CodecVersion)
	var flags byte
	if meta.Sequential {
		flags |= 1
	}
	hdr = append(hdr, flags)
	hdr = appendUvarint(hdr, uint64(meta.PEs))
	refsOff = len(hdr)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(max(meta.Refs, 0)))
	hdr = appendString(hdr, meta.Benchmark)
	hdr = appendString(hdr, meta.EmulatorVersion)
	hdr = appendUvarint(hdr, uint64(len(meta.ObjTypes)))
	for _, name := range meta.ObjTypes {
		hdr = appendString(hdr, name)
	}
	return hdr, refsOff
}

// Meta returns the writer's metadata. Refs and PerPE reflect the
// references written so far (complete only after Close).
func (cw *ChunkWriter) Meta() Meta {
	m := cw.meta
	m.Refs = cw.total
	m.PerPE = append([]int64(nil), cw.perPE...)
	return m
}

// Add implements Sink.
func (cw *ChunkWriter) Add(r Ref) {
	if cw.err != nil {
		return
	}
	if cw.closed {
		cw.err = fmt.Errorf("trace: ChunkWriter.Add after Close")
		return
	}
	cw.chunk = append(cw.chunk, r)
	if len(cw.chunk) == codecChunkRefs {
		cw.flushChunk()
	}
}

// AddBatch implements BatchSink. Chunk-aligned prefixes of the batch
// are encoded straight from the caller's slice (the encode is
// synchronous, so nothing is retained past the call); only the
// sub-chunk tail is staged. A producer flushing a staging buffer of
// exactly codecChunkRefs references therefore encodes with no
// intermediate copy at all.
func (cw *ChunkWriter) AddBatch(refs []Ref) {
	for len(refs) > 0 {
		if cw.err != nil {
			return
		}
		if cw.closed {
			cw.err = fmt.Errorf("trace: ChunkWriter.AddBatch after Close")
			return
		}
		if len(cw.chunk) == 0 && len(refs) >= codecChunkRefs {
			cw.encodeChunk(refs[:codecChunkRefs])
			refs = refs[codecChunkRefs:]
			continue
		}
		n := codecChunkRefs - len(cw.chunk)
		if n > len(refs) {
			n = len(refs)
		}
		cw.chunk = append(cw.chunk, refs[:n]...)
		refs = refs[n:]
		if len(cw.chunk) == codecChunkRefs {
			cw.flushChunk()
		}
	}
}

// flushChunk encodes and writes the pending staged chunk.
func (cw *ChunkWriter) flushChunk() {
	if cw.err != nil || len(cw.chunk) == 0 {
		return
	}
	cw.encodeChunk(cw.chunk)
	cw.chunk = cw.chunk[:0]
}

// encodeChunk encodes one chunk's references (at most codecChunkRefs)
// and writes the framed result. The inner loop emits tag bytes and
// zigzag-varint address deltas by index into a worst-case-sized buffer
// — no per-reference function calls — which is the dominant cost of
// cold trace generation after the emulator itself.
func (cw *ChunkWriter) encodeChunk(refs []Ref) {
	if cap(cw.enc) < len(refs)*maxEncodedRefBytes {
		cw.enc = make([]byte, len(refs)*maxEncodedRefBytes)
	}
	var perPE [256]int64
	n, err := encodePayload(refs, cw.meta.PEs, cw.enc[:cap(cw.enc)], &perPE)
	if err != nil {
		cw.err = err
		return
	}
	for p := 0; p < cw.meta.PEs; p++ {
		cw.perPE[p] += perPE[p]
	}
	enc := cw.enc[:n]
	frame := chunkFrame(len(refs), enc)
	if _, err := cw.w.Write(frame); err != nil {
		cw.err = err
	} else if _, err := cw.w.Write(enc); err != nil {
		cw.err = err
	}
	cw.total += int64(len(refs))
}

// encodePayload encodes one chunk's references into buf, which must
// have room for len(refs)*maxEncodedRefBytes bytes, and returns the
// encoded length. Delta state (previous address per PE, previous PE)
// is chunk-local by design — every chunk decodes independently — which
// is exactly what makes chunks encodable in parallel: the bytes a
// chunk encodes to depend only on the chunk's own references.
// Per-reference counts are accumulated into perPE. Shared by
// ChunkWriter and ParallelChunkWriter.
func encodePayload(refs []Ref, pes int, buf []byte, perPE *[256]int64) (int, error) {
	i := 0
	// Per-PE state lives in stack-local tables indexed by the raw PE
	// byte: no slice bounds checks, no aliasing with the writer's heap
	// state, so the inner loop keeps its working set in registers and
	// L1. The two common shapes — same-PE single-byte delta and
	// PE-switch single-byte delta — each collapse into one merged
	// store (the buffer has maxEncodedRefBytes of slack per reference,
	// so the wide store never overruns).
	var prevAddr [256]uint32
	prevPE := -1
	for _, r := range refs {
		if int(r.PE) >= pes {
			return 0, fmt.Errorf("trace: reference PE %d outside the declared %d PEs", r.PE, pes)
		}
		if r.Obj >= 32 {
			return 0, fmt.Errorf("trace: object type %d does not fit the codec's 5-bit field", r.Obj)
		}
		tag := byte(r.Obj) << 1
		if r.Op == OpWrite {
			tag |= tagOpWrite
		}
		pe := r.PE
		u := zigzag(int64(r.Addr) - int64(prevAddr[pe]))
		prevAddr[pe] = r.Addr
		perPE[pe]++
		if int(pe) == prevPE {
			tag |= tagSamePE
			if u < 0x80 {
				// tag + 1-byte delta as one 16-bit store.
				binary.LittleEndian.PutUint16(buf[i:], uint16(tag)|uint16(u)<<8)
				i += 2
				continue
			}
			buf[i] = tag
			i++
		} else {
			prevPE = int(pe)
			if u < 0x80 {
				// tag + PE + 1-byte delta as one 32-bit store (the
				// fourth byte is slack, overwritten by the next ref).
				binary.LittleEndian.PutUint32(buf[i:], uint32(tag)|uint32(pe)<<8|uint32(u)<<16)
				i += 3
				continue
			}
			buf[i] = tag
			buf[i+1] = pe
			i += 2
		}
		for u >= 0x80 {
			buf[i] = byte(u) | 0x80
			i++
			u >>= 7
		}
		buf[i] = byte(u)
		i++
	}
	return i, nil
}

// chunkFrame builds the frame preceding one encoded chunk payload:
// reference count, payload length, payload CRC.
func chunkFrame(nrefs int, payload []byte) []byte {
	frame := make([]byte, 0, 2*binary.MaxVarintLen64+4)
	frame = appendUvarint(frame, uint64(nrefs))
	frame = appendUvarint(frame, uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	frame = append(frame, crc[:]...)
	return frame
}

// Close flushes the partial chunk, writes the end-of-chunks marker and
// the footer (total and per-PE counts, CRC-protected), and flushes the
// underlying writer. If the header declared a reference count, Close
// verifies it. Close is idempotent; it reports the first error from any
// earlier write.
func (cw *ChunkWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.flushChunk()
	cw.closed = true
	if cw.err != nil {
		return cw.err
	}
	if cw.meta.Refs > 0 && cw.meta.Refs != cw.total {
		cw.err = fmt.Errorf("trace: header declared %d refs, wrote %d", cw.meta.Refs, cw.total)
		return cw.err
	}
	if _, err := cw.w.Write(compactFooter(cw.total, cw.perPE)); err != nil {
		cw.err = err
		return cw.err
	}
	if cw.err = cw.w.Flush(); cw.err != nil {
		return cw.err
	}
	cw.err = patchHeaderCount(cw.out, cw.rawHdr, cw.refsOff, cw.meta.Refs, cw.total)
	return cw.err
}

// compactFooter builds the stream trailer: the end-of-chunks marker
// followed by the CRC-protected footer body (total and per-PE counts).
// Shared by ChunkWriter and ParallelChunkWriter.
func compactFooter(total int64, perPE []int64) []byte {
	footer := appendUvarint(nil, 0) // end-of-chunks marker
	body := appendUvarint(nil, uint64(total))
	body = appendUvarint(body, uint64(len(perPE)))
	for _, n := range perPE {
		body = appendUvarint(body, uint64(n))
	}
	footer = append(footer, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(footer, crc[:]...)
}

// patchHeaderCount back-fills the header's reference count (and its
// CRC) after a streamed write, when the underlying writer is seekable
// (a file). On a pure stream the header keeps count zero and readers
// rely on the footer instead. Shared by ChunkWriter and
// ParallelChunkWriter.
func patchHeaderCount(out io.Writer, rawHdr []byte, refsOff int, declared, total int64) error {
	if declared == total {
		return nil // header already carries the exact count
	}
	ws, ok := out.(io.WriteSeeker)
	if !ok {
		return nil
	}
	binary.LittleEndian.PutUint64(rawHdr[refsOff:], uint64(total))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(rawHdr))
	if _, err := ws.Seek(int64(refsOff), io.SeekStart); err != nil {
		return err
	}
	if _, err := ws.Write(rawHdr[refsOff : refsOff+8]); err != nil {
		return err
	}
	if _, err := ws.Seek(int64(len(rawHdr)), io.SeekStart); err != nil {
		return err
	}
	if _, err := ws.Write(crc[:]); err != nil {
		return err
	}
	_, err := ws.Seek(0, io.SeekEnd)
	return err
}

// byteReader wraps a bufio.Reader tracking consumed bytes for
// error positions.
type byteReader struct {
	br *bufio.Reader
	n  int64
}

func (b *byteReader) ReadByte() (byte, error) {
	c, err := b.br.ReadByte()
	if err == nil {
		b.n++
	}
	return c, err
}

func (b *byteReader) full(p []byte) error {
	n, err := io.ReadFull(b.br, p)
	b.n += int64(n)
	return err
}

func (b *byteReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(b)
}

func (b *byteReader) lengthString(what string) (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", fmt.Errorf("trace: reading %s length: %w", what, err)
	}
	if n > maxHeaderString {
		return "", fmt.Errorf("trace: %s length %d exceeds limit", what, n)
	}
	buf := make([]byte, n)
	if err := b.full(buf); err != nil {
		return "", fmt.Errorf("trace: reading %s: %w", what, err)
	}
	return string(buf), nil
}

// ChunkReader decodes a compact chunked trace, verifying the header,
// every chunk CRC and the footer totals. Decoding is streaming: chunks
// are delivered to the sink one batch at a time, so a trace larger than
// memory replays in constant space.
type ChunkReader struct {
	r       *byteReader
	meta    Meta
	payload []byte
	done    bool
}

// NewChunkReader parses and verifies the compact header. The reader
// rejects traces with an unknown codec version or an object-type table
// that does not match this build's Table 1 (such a trace was produced
// by an incompatible emulator and would mis-classify every reference).
func NewChunkReader(r io.Reader) (*ChunkReader, error) {
	cr := &ChunkReader{r: &byteReader{br: bufio.NewReaderSize(r, 1<<16)}}
	// The header CRC covers the raw bytes; re-serialize while parsing.
	raw := make([]byte, 0, 256)
	var magic [4]byte
	if err := cr.r.full(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != compactMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a compact trace)", magic)
	}
	raw = append(raw, magic[:]...)
	var vf [2]byte
	if err := cr.r.full(vf[:]); err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	raw = append(raw, vf[:]...)
	if vf[0] != CodecVersion {
		return nil, fmt.Errorf("trace: unsupported codec version %d (this build reads version %d)", vf[0], CodecVersion)
	}
	cr.meta.Sequential = vf[1]&1 != 0
	pes, err := cr.r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading PE count: %w", err)
	}
	if pes == 0 || pes > 256 {
		return nil, fmt.Errorf("trace: implausible PE count %d", pes)
	}
	cr.meta.PEs = int(pes)
	raw = appendUvarint(raw, pes)
	var refsField [8]byte
	if err := cr.r.full(refsField[:]); err != nil {
		return nil, fmt.Errorf("trace: reading ref count: %w", err)
	}
	cr.meta.Refs = int64(binary.LittleEndian.Uint64(refsField[:]))
	raw = append(raw, refsField[:]...)
	if cr.meta.Benchmark, err = cr.r.lengthString("benchmark name"); err != nil {
		return nil, err
	}
	raw = appendString(raw, cr.meta.Benchmark)
	if cr.meta.EmulatorVersion, err = cr.r.lengthString("emulator version"); err != nil {
		return nil, err
	}
	raw = appendString(raw, cr.meta.EmulatorVersion)
	nObj, err := cr.r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading object table size: %w", err)
	}
	if nObj > 32 {
		return nil, fmt.Errorf("trace: object table size %d exceeds the codec's 32-type limit", nObj)
	}
	raw = appendUvarint(raw, nObj)
	cr.meta.ObjTypes = make([]string, nObj)
	for i := range cr.meta.ObjTypes {
		if cr.meta.ObjTypes[i], err = cr.r.lengthString("object type name"); err != nil {
			return nil, err
		}
		raw = appendString(raw, cr.meta.ObjTypes[i])
	}
	var crc [4]byte
	if err := cr.r.full(crc[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header CRC: %w", err)
	}
	if got := crc32.ChecksumIEEE(raw); got != binary.LittleEndian.Uint32(crc[:]) {
		return nil, fmt.Errorf("trace: header CRC mismatch (corrupt file)")
	}
	want := currentObjTypeNames()
	if len(cr.meta.ObjTypes) != len(want) {
		return nil, fmt.Errorf("trace: object table has %d types, this build has %d (incompatible emulator)",
			len(cr.meta.ObjTypes), len(want))
	}
	for i, name := range cr.meta.ObjTypes {
		if name != want[i] {
			return nil, fmt.Errorf("trace: object type %d is %q in the trace but %q in this build (incompatible emulator)",
				i, name, want[i])
		}
	}
	return cr, nil
}

// Meta returns the trace metadata. Refs and PerPE are authoritative
// only after Replay has consumed the footer; before that Refs holds the
// header's declared count (possibly zero for streamed traces).
func (cr *ChunkReader) Meta() Meta { return cr.meta }

// Replay decodes every chunk into the sink and verifies the footer. The
// sink receives references in exact emission order, and nothing is
// allocated per chunk:
//
//   - a Buffer gets each chunk decoded straight into its tail segment,
//     a new one when the chunk does not fit in what is left of it;
//   - a FanOut gets each chunk decoded straight into the ring slot it
//     is sent from, with its runs when a consumer takes them, and sent
//     as is — unless a partial chunk from Add or AddBatch is waiting,
//     or the chunk is larger than the FanOut's, when it is decoded into
//     a reused batch and copied in by AddBatch;
//   - a RunSink gets one reused batch and its runs, found as the chunk
//     decodes (decodeChunk), through AddRuns;
//   - any other sink gets one reused batch, as the BatchSink contract
//     allows, or each reference through Add.
//
// Replay returns the number of references delivered.
func (cr *ChunkReader) Replay(sink Sink) (int64, error) {
	if cr.done {
		return 0, fmt.Errorf("trace: ChunkReader.Replay called twice")
	}
	cr.done = true
	buf, isBuffer := sink.(*Buffer)
	fan, isFan := sink.(*FanOut)
	rs, isRuns := sink.(RunSink)
	bs, isBatch := sink.(BatchSink)
	var batch []Ref  // the reused batch of a sink that keeps none
	var runs []int32 // and its reused run starts, for a RunSink
	var crc [4]byte  // a chunk's CRC: it escapes, so one per Replay, not per chunk
	var total int64
	perPE := make([]int64, cr.meta.PEs)
	for {
		refCount, err := cr.r.uvarint()
		if err != nil {
			return total, fmt.Errorf("trace: reading chunk header at ref %d: %w", total, err)
		}
		if refCount == 0 {
			break // end-of-chunks marker; footer follows
		}
		if refCount > maxChunkRefs {
			return total, fmt.Errorf("trace: chunk declares %d refs (limit %d)", refCount, maxChunkRefs)
		}
		payloadLen, err := cr.r.uvarint()
		if err != nil {
			return total, fmt.Errorf("trace: reading chunk length at ref %d: %w", total, err)
		}
		if payloadLen < refCount || payloadLen > refCount*maxEncodedRefBytes {
			return total, fmt.Errorf("trace: chunk payload %d bytes implausible for %d refs", payloadLen, refCount)
		}
		if err := cr.r.full(crc[:]); err != nil {
			return total, fmt.Errorf("trace: reading chunk CRC at ref %d: %w", total, err)
		}
		if cap(cr.payload) < int(payloadLen) {
			cr.payload = make([]byte, payloadLen)
		}
		payload := cr.payload[:payloadLen]
		if err := cr.r.full(payload); err != nil {
			return total, fmt.Errorf("trace: reading chunk payload at ref %d: %w", total, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(crc[:]) {
			return total, fmt.Errorf("trace: chunk CRC mismatch at ref %d (corrupt file)", total)
		}
		n := int(refCount)
		var refs []Ref
		var starts []int32 // where the decoder marks runs; nil when no one takes them
		inPlace := false
		if isFan {
			refs, starts, inPlace = fan.slot(n)
		}
		switch {
		case inPlace:
		case isBuffer:
			// The slots become part of the Buffer only once they decode.
			refs = buf.room(n)[:n]
		default:
			if cap(batch) < n {
				batch = make([]Ref, n)
			}
			refs = batch[:n]
			if isRuns {
				if cap(runs) < n+1 {
					runs = make([]int32, n+1)
				}
				starts = runs[:n+1]
			}
		}
		starts, err = decodeChunk(refs, starts, payload, cr.meta.PEs, perPE)
		if err != nil {
			return total, fmt.Errorf("trace: chunk at ref %d: %w", total, err)
		}
		switch {
		case inPlace:
			fan.dispatch(refs, starts)
		case isBuffer:
			buf.commit(n)
		case isRuns:
			rs.AddRuns(refs, starts)
		case isBatch:
			bs.AddBatch(refs)
		default:
			for _, r := range refs {
				sink.Add(r)
			}
		}
		total += int64(n)
	}
	// Footer: totals, CRC-protected.
	body := make([]byte, 0, 64)
	footTotal, err := cr.r.uvarint()
	if err != nil {
		return total, fmt.Errorf("trace: reading footer: %w", err)
	}
	body = appendUvarint(body, footTotal)
	nPE, err := cr.r.uvarint()
	if err != nil {
		return total, fmt.Errorf("trace: reading footer PE table: %w", err)
	}
	if nPE != uint64(cr.meta.PEs) {
		return total, fmt.Errorf("trace: footer has %d PE entries, header declared %d", nPE, cr.meta.PEs)
	}
	body = appendUvarint(body, nPE)
	footPerPE := make([]int64, nPE)
	for i := range footPerPE {
		v, err := cr.r.uvarint()
		if err != nil {
			return total, fmt.Errorf("trace: reading footer PE table: %w", err)
		}
		footPerPE[i] = int64(v)
		body = appendUvarint(body, v)
	}
	if err := cr.r.full(crc[:]); err != nil {
		return total, fmt.Errorf("trace: reading footer CRC: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != binary.LittleEndian.Uint32(crc[:]) {
		return total, fmt.Errorf("trace: footer CRC mismatch (corrupt file)")
	}
	if int64(footTotal) != total {
		return total, fmt.Errorf("trace: footer declares %d refs, stream decoded %d (truncated or corrupt)", footTotal, total)
	}
	if cr.meta.Refs != 0 && cr.meta.Refs != total {
		return total, fmt.Errorf("trace: header declares %d refs, stream decoded %d", cr.meta.Refs, total)
	}
	for i, n := range footPerPE {
		if n != perPE[i] {
			return total, fmt.Errorf("trace: footer declares %d refs for PE %d, stream decoded %d", n, i, perPE[i])
		}
	}
	cr.meta.Refs = total
	cr.meta.PerPE = footPerPE
	return total, nil
}

// decodeChunk decodes one chunk payload into refs, accumulating per-PE
// counts; on error refs holds garbage and the counts are untouched. The
// payload must contain exactly len(refs) references and no trailing
// bytes.
//
// When runs is not nil it must have room for len(refs)+1 entries, and
// decodeChunk returns the chunk's runs in its storage, as LineRuns
// would find them: a run start is marked as each reference decodes,
// with one compare of its run key, built from the tag, PE and address
// already in registers, against the previous reference's. Runs are
// derived, never stored: the payload is the same either way.
//
// Fast path: while eight bytes remain, a reference whose address delta
// takes at most three varint bytes (almost all of them) decodes from
// one 8-byte load under every check of the general path; anything else
// goes through the general path, which decodes it or reports the error.
func decodeChunk(refs []Ref, runs []int32, payload []byte, pes int, perPE []int64) ([]int32, error) {
	refCount := len(refs)
	var prevAddr [256]uint32
	var counts [256]int64
	prevPE := -1
	var last uint32 // prevAddr[prevPE], kept out of memory
	nr := 0         // runs marked so far
	prevKey := ^uint64(0)
	pos := 0
	last8 := len(payload) - 8
	for i := range refs {
		if pos <= last8 {
			w := binary.LittleEndian.Uint64(payload[pos:])
			tag := byte(w)
			pe, base, v, n, ok := byte(prevPE), last, w>>8, 1, prevPE >= 0
			if tag&tagSamePE == 0 {
				pe, v, n = byte(w>>8), w>>16, 2
				base, ok = prevAddr[pe], int(pe) < pes
			}
			ok = ok && tag&0x80 == 0
			var u uint64
			switch {
			case v&0x80 == 0:
				u, n = v&0x7f, n+1
			case v&0x8000 == 0:
				u, n = v&0x7f|v>>1&0x3f80, n+2
			case v&0x800000 == 0:
				u, n = v&0x7f|v>>1&0x3f80|v>>2&0x1fc000, n+3
			default:
				ok = false
			}
			addr := int64(base) + unzigzag(u)
			if ok && uint64(addr) <= math.MaxUint32 {
				refs[i] = Ref{Addr: uint32(addr), PE: pe, Op: Op(tag & tagOpWrite), Obj: ObjType(tag >> 1 & 0x1f)}
				prevAddr[pe] = uint32(addr)
				last = uint32(addr)
				counts[pe]++
				prevPE = int(pe)
				pos += n
				if runs != nil {
					k := uint64(uint32(addr)>>2) | uint64(pe)<<32 | tagRunClass[tag&tagRunMask]
					runs[nr] = int32(i)
					if k != prevKey {
						nr++
					}
					prevKey = k
				}
				continue
			}
		}
		if pos >= len(payload) {
			return nil, fmt.Errorf("payload exhausted at ref %d of %d", i, refCount)
		}
		tag := payload[pos]
		pos++
		if tag&0x80 != 0 {
			return nil, fmt.Errorf("reserved tag bit set at ref %d", i)
		}
		pe := prevPE
		if tag&tagSamePE == 0 {
			if pos >= len(payload) {
				return nil, fmt.Errorf("payload exhausted reading PE at ref %d", i)
			}
			pe = int(payload[pos])
			pos++
			prevPE = pe
		}
		if pe < 0 || pe >= pes {
			return nil, fmt.Errorf("PE %d out of range at ref %d", pe, i)
		}
		delta, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("bad address varint at ref %d", i)
		}
		pos += n
		addr := int64(prevAddr[pe]) + unzigzag(delta)
		if addr < 0 || addr > int64(^uint32(0)) {
			return nil, fmt.Errorf("address %d out of range at ref %d", addr, i)
		}
		op := OpRead
		if tag&tagOpWrite != 0 {
			op = OpWrite
		}
		refs[i] = Ref{
			Addr: uint32(addr),
			PE:   uint8(pe),
			Op:   op,
			Obj:  ObjType(tag >> 1 & 0x1f),
		}
		prevAddr[pe] = uint32(addr)
		last = uint32(addr)
		counts[pe]++
		if runs != nil {
			k := uint64(uint32(addr)>>2) | uint64(pe)<<32 | tagRunClass[tag&tagRunMask]
			runs[nr] = int32(i)
			if k != prevKey {
				nr++
			}
			prevKey = k
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%d trailing bytes after %d refs", len(payload)-pos, refCount)
	}
	for p := range perPE {
		perPE[p] += counts[p]
	}
	if runs == nil {
		return nil, nil
	}
	runs[nr] = int32(refCount)
	return runs[:nr+1], nil
}

// tagRunMask selects a tag's operation and object type, the fields of
// the run key it carries.
const tagRunMask = tagOpWrite | tagObjMask

// tagRunClass is the run key's operation and Global fields by tag, as
// runKey packs them from a Ref, so the decoder keys a reference without
// building one.
var tagRunClass = func() (t [tagRunMask + 1]uint64) {
	for tag := range t {
		t[tag] = uint64(tag&tagOpWrite)<<40 | runClass[tag>>1]
	}
	return t
}()

// WriteCompact serializes the buffer in the compact chunked format.
// meta.Refs is filled in from the buffer, so the header carries the
// exact count.
func (b *Buffer) WriteCompact(w io.Writer, meta Meta) error {
	meta.Refs = int64(b.Len())
	cw, err := NewChunkWriter(w, meta)
	if err != nil {
		return err
	}
	for _, seg := range b.Segments() {
		cw.AddBatch(seg)
	}
	return cw.Close()
}

// ReadCompact fully decodes a compact chunked trace into a new Buffer.
// Use NewChunkReader + Replay to stream instead of materializing.
func ReadCompact(r io.Reader) (*Buffer, Meta, error) {
	cr, err := NewChunkReader(r)
	if err != nil {
		return nil, Meta{}, err
	}
	n := cr.Meta().Refs
	if n <= 0 || n > maxRefs {
		n = 0
	}
	buf := NewBuffer(int(n))
	if _, err := cr.Replay(buf); err != nil {
		return nil, cr.Meta(), err
	}
	return buf, cr.Meta(), nil
}
