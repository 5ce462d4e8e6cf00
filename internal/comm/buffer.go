package comm

import "fmt"

// Buffer is a communication buffer. It is either real — backed by a []byte
// segment — or virtual: a length with no storage. Virtual buffers let the
// simulator run paper-scale configurations (3584 ranks x ~14.7 MB of
// all-to-all payload each) without allocating terabytes; all cost modeling
// needs only lengths. The same algorithm code runs unchanged on either kind
// because every data movement goes through Comm.Memcpy, a point-to-point
// operation, or a CopyBlocks repack, all of which accept both. A repack
// moves bytes with CopyBlocks and charges its cost separately with
// Comm.ChargeCopy, whose byte and block counts are the logical per-block
// totals — what a block-at-a-time repack would move — not the number of
// CopyBlocks calls that performed it.
//
// A real buffer is contiguous or a vector view (see Blocks): equal blocks
// a fixed stride apart in a contiguous parent, MPI_Type_vector's layout.
// A receive into a view lands its message already scattered into those
// blocks, so a repack that only reorders blocks can be done by the
// exchange before it, with the repack still charged. Views pass through
// every send, receive and Memcpy on both substrates, which copy with
// CopyData; Bytes, Blocks and CopyBlocks take contiguous buffers only.
//
// A Buffer is 32 bytes: it is held in every queued message and posted
// receive, and a wider one shows in the simulator's allocations. A view
// keeps its layout in the slice header: data starts at its first block,
// len(data) is the block size and cap(data) reaches the end of its last
// block, from which the stride follows. A contiguous buffer has
// len(data) == length.
//
// Slicing panics on out-of-range arguments, matching Go slice semantics:
// a bad slice is a programming error in the algorithm, not a runtime
// condition to handle.
type Buffer struct {
	data   []byte // nil for virtual buffers; a view's first block, capped at the end of its last
	length int
}

// Alloc returns a real zeroed buffer of n bytes.
func Alloc(n int) Buffer {
	if n < 0 {
		panic(fmt.Sprintf("comm: Alloc(%d): negative length", n))
	}
	return Buffer{data: make([]byte, n), length: n}
}

// Wrap returns a real buffer aliasing p (no copy).
func Wrap(p []byte) Buffer { return Buffer{data: p, length: len(p)} }

// Virtual returns a storage-less buffer of n bytes.
func Virtual(n int) Buffer {
	if n < 0 {
		panic(fmt.Sprintf("comm: Virtual(%d): negative length", n))
	}
	return Buffer{length: n}
}

// Stage returns the first n bytes of the staging buffer *buf, which
// matches ref's virtualness. Staging buffers are kept across calls; one
// is only rebuilt when it must grow or when the caller switches between
// real and virtual payloads, so calls alternating block sizes reuse it.
// Every algorithm that keeps staging or scratch space across calls
// stages through it.
func Stage(buf *Buffer, ref Buffer, n int) Buffer {
	if buf.Len() < n || buf.IsVirtual() != ref.IsVirtual() {
		if ref.IsVirtual() {
			*buf = Virtual(n)
		} else {
			*buf = Alloc(n)
		}
	}
	return buf.Slice(0, n)
}

// Len returns the buffer length in bytes.
func (b Buffer) Len() int { return b.length }

// IsVirtual reports whether the buffer has no backing storage.
func (b Buffer) IsVirtual() bool { return b.data == nil && b.length > 0 }

// isView reports whether b is a vector view.
func (b Buffer) isView() bool { return b.data != nil && len(b.data) != b.length }

// mustBeContiguous panics, naming op, when b is a view.
func (b Buffer) mustBeContiguous(op string) {
	if b.isView() {
		panic(fmt.Sprintf("comm: %s of a %d-byte view of %d-byte blocks", op, b.length, len(b.data)))
	}
}

// Bytes returns the backing storage (nil for virtual buffers). It panics
// on a view, whose bytes are not one slice.
func (b Buffer) Bytes() []byte {
	b.mustBeContiguous("Bytes")
	return b.data
}

// Slice returns the sub-buffer [off, off+n). It panics if the range is out
// of bounds, like slicing a Go slice. A view slices on block boundaries
// only, into the view of the blocks in the range.
func (b Buffer) Slice(off, n int) Buffer {
	if off < 0 || n < 0 || off+n > b.length {
		panic(fmt.Sprintf("comm: Slice(%d, %d) out of range of %d-byte buffer", off, n, b.length))
	}
	if !b.isView() {
		if b.data == nil {
			return Buffer{length: n}
		}
		return Buffer{data: b.data[off : off+n], length: n}
	}
	size := len(b.data)
	if off%size != 0 || n%size != 0 {
		panic(fmt.Sprintf("comm: Slice(%d, %d) off the %d-byte blocks of a view", off, n, size))
	}
	span, _, step := b.runs()
	stride := step / size
	return Wrap(span).Blocks(off/size*stride, stride, n/size, size)
}

// Blocks returns the vector view of count blocks of size bytes: block i of
// the view is block index start+i*stride of b, where block index j covers
// bytes [j*size, (j+1)*size) — the layout CopyBlocks reads and writes. A
// message received into the view fills its blocks in order, and one sent
// from it leaves them in order. A view of one block or of stride 1 is the
// contiguous Slice of those bytes, and one of a virtual buffer is virtual.
//
// Blocks panics when stride is below 1, count or size is negative, b is
// itself a view, or the first or last block lies outside b (as Slice
// does). A zero count returns an empty buffer and checks nothing.
func (b Buffer) Blocks(start, stride, count, size int) Buffer {
	if stride < 1 || count < 0 || size < 0 {
		panic(fmt.Sprintf("comm: Blocks(stride %d, count %d, size %d): stride below 1 or negative argument", stride, count, size))
	}
	b.mustBeContiguous("Blocks")
	if count == 0 {
		return Buffer{}
	}
	b.checkBlocks(start, stride, count, size)
	n := count * size
	if b.data == nil {
		return Buffer{length: n}
	}
	lo := start * size
	if stride == 1 || count == 1 {
		return Buffer{data: b.data[lo : lo+n], length: n}
	}
	return Buffer{data: b.data[lo : lo+size : lo+((count-1)*stride+1)*size], length: n}
}

// runs returns b's storage from its first byte to its last, the length of
// each of its runs and the distance between run starts: one run of every
// byte for a contiguous buffer, one run a block for a view.
func (b Buffer) runs() (span []byte, run, step int) {
	if !b.isView() {
		return b.data, b.length, b.length
	}
	run = len(b.data)
	span = b.data[:cap(b.data)]
	return span, run, (len(span) - run) / (b.length/run - 1)
}

// CopyData copies src into the first src.Len() bytes of dst, walking the
// runs of both sides, so either may be a view: a message shorter than a
// view receive fills the view's blocks in order. Bytes move only when both
// sides are real. It returns the logical byte count (always src.Len()) so
// callers can charge cost for virtual copies too, and an error when src
// is longer than dst.
func CopyData(dst, src Buffer) (int, error) {
	if src.length > dst.length {
		return 0, fmt.Errorf("comm: copy of %d bytes into a %d-byte buffer", src.length, dst.length)
	}
	if dst.data == nil || src.data == nil {
		return src.length, nil
	}
	d, dRun, dStep := dst.runs()
	s, sRun, sStep := src.runs()
	dOff, dEnd, sOff, sEnd := 0, dRun, 0, sRun
	for n := src.length; n > 0; {
		k := min(n, dEnd-dOff, sEnd-sOff)
		copy(d[dOff:dOff+k], s[sOff:sOff+k])
		n -= k
		if dOff += k; dOff == dEnd {
			dOff += dStep - dRun
			dEnd = dOff + dRun
		}
		if sOff += k; sOff == sEnd {
			sOff += sStep - sRun
			sEnd = sOff + sRun
		}
	}
	return src.length, nil
}

// CopyBlocks copies count blocks of size bytes each from src to dst, like
// a copy between two MPI_Type_vector layouts: block i moves from block
// index srcStart+i*srcStride of src to block index dstStart+i*dstStride of
// dst, where block index j covers bytes [j*size, (j+1)*size). Strides are
// signed, so a run can be reversed. It returns the logical byte count
// count*size so callers can charge cost for virtual copies too.
//
// Bytes move only when both buffers are real; on a virtual side the call
// is an O(1) bounds check. The first and last block of each side must lie
// inside its buffer, else CopyBlocks panics like Slice — whether or not the
// buffers are real. It panics on a view too: copy into or out of one with
// CopyData. A zero count copies and checks nothing. The source and
// destination ranges must not overlap.
func CopyBlocks(dst Buffer, dstStart, dstStride int, src Buffer, srcStart, srcStride, count, size int) int {
	if count < 0 || size < 0 {
		panic(fmt.Sprintf("comm: CopyBlocks(count %d, size %d): negative argument", count, size))
	}
	dst.mustBeContiguous("CopyBlocks")
	src.mustBeContiguous("CopyBlocks")
	if count == 0 {
		return 0
	}
	dst.checkBlocks(dstStart, dstStride, count, size)
	src.checkBlocks(srcStart, srcStride, count, size)
	if dst.data == nil || src.data == nil {
		return count * size
	}
	if dstStride == 1 && srcStride == 1 {
		copy(dst.data[dstStart*size:(dstStart+count)*size], src.data[srcStart*size:])
		return count * size
	}
	d, s := dstStart*size, srcStart*size
	for i := 0; i < count; i++ {
		copy(dst.data[d:d+size], src.data[s:s+size])
		d += dstStride * size
		s += srcStride * size
	}
	return count * size
}

// checkBlocks panics unless the first and last of count strided blocks
// lie inside b; the blocks between them then do too.
func (b Buffer) checkBlocks(start, stride, count, size int) {
	for _, j := range [2]int{start, start + (count-1)*stride} {
		if j < 0 || (j+1)*size > b.length {
			panic(fmt.Sprintf("comm: block %d of %d bytes out of range of %d-byte buffer", j, size, b.length))
		}
	}
}
