package core

import (
	"encoding/binary"
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// Tag bases for the leader-aggregating alltoallv phases, distinct from the
// fixed-size bases so a program interleaving both operations on one
// communicator can never cross-match.
const (
	tagVCounts  = 211
	tagVGather  = 221
	tagVScatter = 311
)

// vLeadered applies the paper's aggregation strategy (Section 3, extended
// to variable-sized exchanges per its Section 5 future work) to
// MPI_Alltoallv. Ranks are partitioned into groups of q consecutive local
// ranks; member 0 of each group is its leader. Groups tile the rank space
// in order, so member j of group d is world rank d*q + j. One exchange
// runs in three stages:
//
//  1. Gather with per-peer count exchange: every member ships its
//     sendCounts/recvCounts vectors and its packed payload to the leader,
//     so the leader knows the exact size of every variable block it
//     aggregates.
//  2. Leader exchange: leaders run an inter-node alltoallv of the
//     aggregated payloads (counts derived from the gathered vectors — no
//     extra count round trip between leaders is needed).
//  3. Scatter: each leader repacks arrivals into per-member,
//     source-rank-ordered segments and returns each member its bytes,
//     which the member spreads to its recv displacements.
//
// With q = ppn (one group per node) this is the node-aware alltoallv:
// all data between a node pair travels in a single aggregated message.
// With q < ppn (several groups per node, q = Options.PPG) it is the
// locality-aware variant: aggregation happens among nearby ranks, trading
// more inter-group messages for cheaper local gathers.
type vLeadered struct {
	*basicV
	info worldInfo

	q       int // group size (processes per leader)
	nGroups int // groups per node
	nLead   int // total groups = nGroups * nnodes
	myGroup int // my group's global index
	myJ     int // my index within the group; 0 = leader

	local   comm.Comm // my group, leader first
	leaders comm.Comm // all leaders (nil on non-leaders)

	inner Inner

	cntSend comm.Buffer // my 2p counts, encoded (always real: control data)
	cntRecv comm.Buffer // leader: q*2p gathered counts (always real)
	packBuf comm.Buffer // member staging: maxTotal
	bufA    comm.Buffer // leader staging: q*maxTotal
	bufB    comm.Buffer // leader staging: q*maxTotal
}

func newVLeadered(c comm.Comm, maxTotal int, o Options, whole bool) (Alltoallver, error) {
	info, err := getWorldInfo(c)
	if err != nil {
		return nil, err
	}
	name, opt := "locality-aware", "PPG"
	q := o.PPG
	if whole {
		name, opt = "node-aware", "PPN"
		q = info.ppn
	}
	if err := checkDivides(opt, q, info); err != nil {
		return nil, err
	}
	if err := checkInnerV(o.Inner); err != nil {
		return nil, err
	}
	v := &vLeadered{
		info: info, q: q, nGroups: info.ppn / q, nLead: (info.ppn / q) * info.nnodes,
		inner: o.Inner,
	}
	v.basicV = newBasicV(name, c, maxTotal, v.run)
	v.myGroup = info.myNode*v.nGroups + info.myLocal/q
	v.myJ = info.myLocal % q

	// local_comm: my group, ordered so the leader is rank 0.
	v.local, err = c.Split(v.myGroup, v.myJ)
	if err != nil {
		return nil, fmt.Errorf("core: %s alltoallv local split: %w", name, err)
	}
	// leaders_comm: the leader of every group, ordered by world rank, so
	// group d's leader sits at position d.
	color := -1
	if v.myJ == 0 {
		color = 0
	}
	v.leaders, err = c.Split(color, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("core: %s alltoallv leader split: %w", name, err)
	}
	// Count vectors are control data the algorithm branches on, so they
	// are always real, even when the payload is virtual (simulation).
	p := info.p
	v.cntSend = comm.Alloc(2 * p * 8)
	if v.myJ == 0 {
		v.cntRecv = comm.Alloc(v.q * 2 * p * 8)
	}
	return v, nil
}

func (v *vLeadered) run(_ comm.Comm, send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	p := v.info.p
	// Stage 0: encode my count vectors and gather them to the leader — the
	// per-peer count exchange that makes variable-block aggregation
	// possible.
	timer := v.rec.Time(trace.PhaseGather)
	encodeCounts(v.cntSend.Bytes(), sendCounts, recvCounts)
	err := gatherToLeader(v.local, v.cntSend, v.cntRecv, tagVCounts)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s alltoallv count gather: %w", v.name, err)
	}

	if v.myJ != 0 {
		return v.memberExchange(send, sendCounts, sdispls, recv, recvCounts, rdispls)
	}
	return v.leaderExchange(send, sendCounts, sdispls, recv, recvCounts, rdispls, p)
}

// memberExchange is the non-leader hot path: pack, ship to the leader,
// receive the packed result, unpack.
func (v *vLeadered) memberExchange(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	packBuf := comm.Stage(&v.packBuf, send, v.maxTotal)

	timer := v.rec.Time(trace.PhaseRepack)
	sendTotal, err := packByCounts(v.c, packBuf, send, sendCounts, sdispls)
	timer.Stop()
	if err != nil {
		return err
	}

	timer = v.rec.Time(trace.PhaseGather)
	err = v.local.Send(packBuf.Slice(0, sendTotal), 0, tagVGather)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s alltoallv data gather: %w", v.name, err)
	}

	recvTotal := sumCounts(recvCounts)
	timer = v.rec.Time(trace.PhaseScatter)
	err = v.local.Recv(packBuf.Slice(0, recvTotal), 0, tagVScatter)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s alltoallv scatter: %w", v.name, err)
	}

	timer = v.rec.Time(trace.PhaseRepack)
	err = unpackByCounts(v.c, recv, recvCounts, rdispls, packBuf)
	timer.Stop()
	return err
}

// leaderExchange is the leader hot path: collect members' payloads,
// aggregate per destination group, exchange among leaders, redistribute.
func (v *vLeadered) leaderExchange(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int, p int) error {
	q := v.q
	bufA := comm.Stage(&v.bufA, send, q*v.maxTotal)
	bufB := comm.Stage(&v.bufB, send, q*v.maxTotal)

	// Decode the gathered count matrix: scs[m][d] bytes flow from member m
	// of my group to world rank d; rcs[m][s] bytes arrive at member m from
	// world rank s.
	scs, rcs := decodeCounts(v.cntRecv.Bytes(), q, p)
	memberSendTotal := make([]int, q)
	memberRecvTotal := make([]int, q)
	for m := 0; m < q; m++ {
		memberSendTotal[m] = sumCounts(scs[m])
		memberRecvTotal[m] = sumCounts(rcs[m])
	}
	memberOff, groupSendTotal := DisplsFromCounts(memberSendTotal)

	// Stage 1b: gather members' packed payloads. Sizes are known from the
	// count gather, so each receive is posted with its exact length.
	timer := v.rec.Time(trace.PhaseGather)
	reqs := make([]comm.Request, 0, q-1)
	for m := 1; m < q; m++ {
		rq, err := v.local.Irecv(bufA.Slice(memberOff[m], memberSendTotal[m]), m, tagVGather)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq)
	}
	err := v.local.WaitAll(reqs)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s alltoallv data gather: %w", v.name, err)
	}
	// My own contribution packs straight into my slot (member 0).
	timer = v.rec.Time(trace.PhaseRepack)
	if _, err := packByCounts(v.c, bufA.Slice(memberOff[0], v.maxTotal), send, sendCounts, sdispls); err != nil {
		return err
	}

	// Repack member-major bufA into destination-group-major bufB: for each
	// destination group d, members' blocks for d's members, member-major.
	// The per-member read cursors advance monotonically because packed
	// payloads are already in world-destination order.
	cursor := append([]int(nil), memberOff...)
	lsc := make([]int, v.nLead) // aggregated bytes to each leader
	woff := 0
	blocks := 0
	for d := 0; d < v.nLead; d++ {
		start := woff
		for m := 0; m < q; m++ {
			for dj := 0; dj < q; dj++ {
				n := scs[m][d*q+dj]
				if _, err := comm.CopyData(bufB.Slice(woff, n), bufA.Slice(cursor[m], n)); err != nil {
					return err
				}
				cursor[m] += n
				woff += n
				blocks++
			}
		}
		lsc[d] = woff - start
	}
	err = v.c.ChargeCopy(groupSendTotal+woff, q*p+blocks)
	timer.Stop()
	if err != nil {
		return err
	}
	lsd, _ := DisplsFromCounts(lsc)

	// Receive counts per source group, derived from members' recvCounts:
	// bytes from group d = sum over its members i and my members m of
	// rcs[m][d*q+i].
	lrc := make([]int, v.nLead)
	for d := 0; d < v.nLead; d++ {
		for i := 0; i < q; i++ {
			s := d*q + i
			for m := 0; m < q; m++ {
				lrc[d] += rcs[m][s]
			}
		}
	}
	lrd, _ := DisplsFromCounts(lrc)

	// Stage 2: aggregated alltoallv among leaders.
	timer = v.rec.Time(trace.PhaseInter)
	err = runInnerV(v.leaders, v.inner, bufB, lsc, lsd, bufA, lrc, lrd)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s alltoallv leader exchange: %w", v.name, err)
	}

	// Repack arrivals into per-member segments ordered by source world
	// rank. An arrival from group d is laid out [src member i][my member
	// m], and iterating (d, i) walks world ranks 0..p-1 in order, so a
	// single sequential pass over bufA lands every member's bytes in
	// source-rank order.
	timer = v.rec.Time(trace.PhaseRepack)
	mOff, _ := DisplsFromCounts(memberRecvTotal)
	wcur := append([]int(nil), mOff...)
	roff := 0
	blocks = 0
	for d := 0; d < v.nLead; d++ {
		for i := 0; i < q; i++ {
			s := d*q + i
			for m := 0; m < q; m++ {
				n := rcs[m][s]
				if _, err := comm.CopyData(bufB.Slice(wcur[m], n), bufA.Slice(roff, n)); err != nil {
					return err
				}
				wcur[m] += n
				roff += n
				blocks++
			}
		}
	}
	err = v.c.ChargeCopy(roff, blocks)
	timer.Stop()
	if err != nil {
		return err
	}

	// Stage 3: scatter members' segments; unpack my own.
	timer = v.rec.Time(trace.PhaseScatter)
	reqs = reqs[:0]
	for m := 1; m < q; m++ {
		rq, err := v.local.Isend(bufB.Slice(mOff[m], memberRecvTotal[m]), m, tagVScatter)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq)
	}
	err = v.local.WaitAll(reqs)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s alltoallv scatter: %w", v.name, err)
	}
	timer = v.rec.Time(trace.PhaseRepack)
	err = unpackByCounts(v.c, recv, recvCounts, rdispls, bufB.Slice(mOff[0], memberRecvTotal[0]))
	timer.Stop()
	return err
}

// packByCounts copies the per-peer segments of src (at displs) into dst
// contiguously in peer order, returning the packed length.
func packByCounts(c comm.Comm, dst, src comm.Buffer, counts, displs []int) (int, error) {
	off := 0
	for i, n := range counts {
		if _, err := comm.CopyData(dst.Slice(off, n), src.Slice(displs[i], n)); err != nil {
			return 0, err
		}
		off += n
	}
	return off, c.ChargeCopy(off, len(counts))
}

// unpackByCounts spreads a contiguous peer-ordered payload back to the
// per-peer displacements of dst.
func unpackByCounts(c comm.Comm, dst comm.Buffer, counts, displs []int, src comm.Buffer) error {
	off := 0
	for i, n := range counts {
		if _, err := comm.CopyData(dst.Slice(displs[i], n), src.Slice(off, n)); err != nil {
			return err
		}
		off += n
	}
	return c.ChargeCopy(off, len(counts))
}

// gatherToLeader gathers each member's equal-size buffer to local rank 0
// (recv significant only there). A one-rank group degenerates to a copy.
func gatherToLeader(local comm.Comm, send, recv comm.Buffer, tag int) error {
	if local.Size() == 1 {
		return local.Memcpy(recv.Slice(0, send.Len()), send)
	}
	if local.Rank() != 0 {
		return local.Send(send, 0, tag)
	}
	block := send.Len()
	reqs := make([]comm.Request, 0, local.Size()-1)
	for m := 1; m < local.Size(); m++ {
		rq, err := local.Irecv(recv.Slice(m*block, block), m, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq)
	}
	if err := local.Memcpy(recv.Slice(0, block), send); err != nil {
		return err
	}
	return local.WaitAll(reqs)
}

// encodeCounts serializes sendCounts then recvCounts as little-endian
// int64s into b.
func encodeCounts(b []byte, sendCounts, recvCounts []int) {
	p := len(sendCounts)
	for i, v := range sendCounts {
		putLeI64(b[i*8:], int64(v))
	}
	for i, v := range recvCounts {
		putLeI64(b[(p+i)*8:], int64(v))
	}
}

// decodeCounts splits a gathered q-member count buffer back into per-
// member sendCounts and recvCounts vectors.
func decodeCounts(b []byte, q, p int) (scs, rcs [][]int) {
	scs = make([][]int, q)
	rcs = make([][]int, q)
	for m := 0; m < q; m++ {
		scs[m] = make([]int, p)
		rcs[m] = make([]int, p)
		base := m * 2 * p * 8
		for i := 0; i < p; i++ {
			scs[m][i] = int(leI64(b[base+i*8:]))
			rcs[m][i] = int(leI64(b[base+(p+i)*8:]))
		}
	}
	return scs, rcs
}

func putLeI64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }

func leI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }
