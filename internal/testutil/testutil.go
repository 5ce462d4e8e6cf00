// Package testutil provides deterministic payload patterns for verifying
// all-to-all results: every (source, destination, byte-offset) triple maps
// to a pseudo-random byte (PatternByte), so any misrouted, misplaced or
// corrupted block is detected, not just missing data.
//
// The intended shape of a correctness test is Fill -> collective -> Check:
// FillAlltoall writes rank r's send buffer, the algorithm under test runs,
// and CheckAlltoall proves block s of the receive buffer holds exactly
// what rank s generated for r. Because the pattern is a pure function of
// (src, dst, offset), no reference data is exchanged or stored, and the
// same checks run identically on the live runtime and on the simulator
// with real payloads. Virtual (payload-free) buffers cannot be checked;
// Check functions report an error for them rather than vacuously passing.
package testutil

import (
	"fmt"

	"alltoallx/internal/comm"
)

// PatternByte returns the expected byte at offset idx of the block sent
// from rank src to rank dst.
func PatternByte(src, dst, idx int) byte {
	x := uint32(src)*2654435761 ^ uint32(dst)*40503 ^ uint32(idx)*2246822519
	x ^= x >> 13
	return byte(x)
}

// FillAlltoall writes the send-side pattern for rank into a p*block send
// buffer: block d carries the data destined for rank d.
func FillAlltoall(send comm.Buffer, rank, p, block int) {
	data := send.Bytes()
	if data == nil {
		return
	}
	for d := 0; d < p; d++ {
		for i := 0; i < block; i++ {
			data[d*block+i] = PatternByte(rank, d, i)
		}
	}
}

// CheckAlltoall verifies the receive-side pattern for rank: block s must
// hold the bytes rank s sent to this rank.
func CheckAlltoall(recv comm.Buffer, rank, p, block int) error {
	data := recv.Bytes()
	if data == nil {
		return fmt.Errorf("testutil: cannot check a virtual buffer")
	}
	for s := 0; s < p; s++ {
		for i := 0; i < block; i++ {
			want := PatternByte(s, rank, i)
			got := data[s*block+i]
			if got != want {
				return fmt.Errorf("testutil: rank %d recv block %d byte %d: got %#x, want %#x", rank, s, i, got, want)
			}
		}
	}
	return nil
}

// FillBlock writes the (src, dst) pattern into a single block buffer.
func FillBlock(b comm.Buffer, src, dst int) {
	data := b.Bytes()
	for i := range data {
		data[i] = PatternByte(src, dst, i)
	}
}

// CheckBlock verifies a single block buffer against the (src, dst)
// pattern.
func CheckBlock(b comm.Buffer, src, dst int) error {
	data := b.Bytes()
	if data == nil {
		return fmt.Errorf("testutil: cannot check a virtual buffer")
	}
	for i := range data {
		if want := PatternByte(src, dst, i); data[i] != want {
			return fmt.Errorf("testutil: block (%d->%d) byte %d: got %#x, want %#x", src, dst, i, data[i], want)
		}
	}
	return nil
}

// View is a vector view of a parent buffer (see comm.Buffer.Blocks), for
// tests that send from or receive into one: count blocks of size bytes,
// stride blocks apart, from the parent's first byte. NewView fills the
// whole parent with a background pattern, so Check sees a stray write
// anywhere in it.
type View struct {
	Parent, Buf  comm.Buffer
	stride, size int
}

// NewView allocates a parent for count blocks of size bytes stride blocks
// apart and returns the view of them.
func NewView(stride, count, size int) View {
	parent := comm.Alloc(((count-1)*stride + 1) * size)
	FillBlock(parent, -1, -1)
	return View{Parent: parent, Buf: parent.Blocks(0, stride, count, size), stride: stride, size: size}
}

// at returns the parent offset of byte i of the view.
func (v View) at(i int) int { return i/v.size*v.stride*v.size + i%v.size }

// Fill writes the (src, dst) pattern into the view's bytes, in order.
func (v View) Fill(src, dst int) {
	data := v.Parent.Bytes()
	for i := 0; i < v.Buf.Len(); i++ {
		data[v.at(i)] = PatternByte(src, dst, i)
	}
}

// Check verifies that the view's first n bytes hold the (src, dst)
// pattern in order and that every other byte of the parent still holds
// NewView's background.
func (v View) Check(n, src, dst int) error {
	want := comm.Alloc(v.Parent.Len())
	FillBlock(want, -1, -1)
	for i := 0; i < n; i++ {
		want.Bytes()[v.at(i)] = PatternByte(src, dst, i)
	}
	for i, got := range v.Parent.Bytes() {
		if w := want.Bytes()[i]; got != w {
			return fmt.Errorf("testutil: view of %d B blocks %d apart, %d B message (%d->%d): parent byte %d is %#x, want %#x",
				v.size, v.stride, n, src, dst, i, got, w)
		}
	}
	return nil
}
