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
// Slicing panics on out-of-range arguments, matching Go slice semantics:
// a bad slice is a programming error in the algorithm, not a runtime
// condition to handle.
type Buffer struct {
	data   []byte // nil for virtual buffers
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

// Bytes returns the backing storage (nil for virtual buffers).
func (b Buffer) Bytes() []byte { return b.data }

// Slice returns the sub-buffer [off, off+n). It panics if the range is out
// of bounds, like slicing a Go slice.
func (b Buffer) Slice(off, n int) Buffer {
	if off < 0 || n < 0 || off+n > b.length {
		panic(fmt.Sprintf("comm: Slice(%d, %d) out of range of %d-byte buffer", off, n, b.length))
	}
	if b.data == nil {
		return Buffer{length: n}
	}
	return Buffer{data: b.data[off : off+n], length: n}
}

// CopyData moves bytes from src to dst when both are real. It returns the
// logical byte count (always src.Len()) so callers can charge cost for
// virtual copies too. Lengths must match: algorithm repacks always copy
// whole blocks.
func CopyData(dst, src Buffer) (int, error) {
	if dst.length != src.length {
		return 0, fmt.Errorf("comm: copy length mismatch: dst %d, src %d", dst.length, src.length)
	}
	if dst.data != nil && src.data != nil {
		copy(dst.data, src.data)
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
// buffers are real. A zero count copies and checks nothing. The source and
// destination ranges must not overlap.
func CopyBlocks(dst Buffer, dstStart, dstStride int, src Buffer, srcStart, srcStride, count, size int) int {
	if count < 0 || size < 0 {
		panic(fmt.Sprintf("comm: CopyBlocks(count %d, size %d): negative argument", count, size))
	}
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
			panic(fmt.Sprintf("comm: CopyBlocks block %d of %d bytes out of range of %d-byte buffer", j, size, b.length))
		}
	}
}
