package core

import (
	"alltoallx/internal/comm"
)

// tunedV is the alltoallv front end of the dispatcher, over an
// OpAlltoallv Dispatch spec. It buckets each call on its total payload:
// the sum of sendCounts, compared against MaxBlock*p per entry (table
// boundaries are stored as mean bytes per peer, so the same size grids
// serve both ops).
//
// Unlike the fixed-size case, a rank's send total is a per-rank quantity:
// valid MPI_Alltoallv count matrices can give different ranks different
// totals, so local bucket picks could diverge — and both the dispatched
// algorithm and the lazy collective NewV construction must be identical
// on every rank. Each call therefore agrees on the bucket with a
// ceil(log2 p)-round dissemination max-allreduce of the local proposals
// (8 bytes per message) before dispatching: the skew-heaviest rank's
// bucket wins everywhere.
type tunedV struct {
	*dispatcher[Alltoallver]
	maxTotal int
}

func newTunedV(c comm.Comm, maxTotal int, o Options) (Alltoallver, error) {
	d, err := newDispatcher(c, OpAlltoallv, o, func(e DispatchEntry) (Alltoallver, error) {
		return NewV(e.Algo, c, maxTotal, e.Opts)
	})
	if err != nil {
		return nil, err
	}
	return &tunedV{dispatcher: d, maxTotal: maxTotal}, nil
}

// tagVDispatch is the tag base of the per-call bucket agreement (one tag
// per dissemination round).
const tagVDispatch = 321

// Start launches dispatch and exchange off the critical path. The bucket
// agreement, lazy construction and the bookkeeping all run inside the
// started body (agreement is communication — exactly what a nonblocking
// Start must not do on the caller), so Picked and Phases reflect a
// started exchange only after its handle completes.
func (t *tunedV) Start(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) (Handle, error) {
	if err := checkVCall(t.c, t.maxTotal, send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
		return nil, err
	}
	return t.st.Start(t.c, func() error {
		mean := float64(sumCounts(sendCounts)) / float64(t.c.Size())
		bucket := []uint64{uint64(dispatchBucket(t.spec.Entries, mean, t.last))}
		if err := agreeMax(t.c, bucket, tagVDispatch, "tuned bucket agreement"); err != nil {
			return err
		}
		return t.run(int(bucket[0]), func(a Alltoallver) error {
			return a.Alltoallv(send, sendCounts, sdispls, recv, recvCounts, rdispls)
		})
	})
}

func (t *tunedV) Alltoallv(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	h, err := t.Start(send, sendCounts, sdispls, recv, recvCounts, rdispls)
	if err != nil {
		return err
	}
	return h.Wait()
}
