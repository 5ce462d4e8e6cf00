package sched

import (
	"errors"
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// TagBase is the first message tag the executor uses; round ri tags its
// messages TagBase+ri. The verifier's one-message-per-pair-per-round rule
// makes the (source, tag) match unambiguous.
const TagBase = 401

// Exec runs one rank's program over a communicator. It is the persistent
// part of a schedule-backed operation: scratch buffers are kept across
// calls and rebuilt only when they must grow or the buffers' virtualness
// changes (comm.Stage, core's staging discipline).
//
// An Exec runs one RankProgram (NewRankExec), the IR's only form: a
// world is its ranks' programs, and each rank runs its own.
//
// Exec does not verify: callers prove the program's world once before
// constructing an executor (Prove, whose world driver proves every
// rank's content at every world size; core and the schedule registry do
// this at algorithm construction) and run the GenerateRank program whose
// digest the proof returned.
// Like the operations built on it, an Exec is driven by one rank's
// goroutine and is not safe for concurrent use.
type Exec struct {
	rp      *RankProgram
	scratch []comm.Buffer
}

// NewRankExec returns an executor for one rank's verified program.
func NewRankExec(rp *RankProgram) *Exec {
	return &Exec{rp: rp, scratch: make([]comm.Buffer, len(rp.Scratch))}
}

// Program returns the rank program the executor runs.
func (e *Exec) Program() *RankProgram { return e.rp }

// Run executes the schedule's rounds for this rank: post the round's
// receives, walk copies and sends in step order, wait, next round. rec,
// when non-nil, accrues Copy time under trace.PhaseRepack (the
// schedule's repack cost in the phase breakdown); it may be nil.
func (e *Exec) Run(c comm.Comm, send, recv comm.Buffer, block int, rec *trace.Recorder) error {
	rp := e.rp
	if rp == nil {
		return errors.New("sched: executor has no schedule")
	}
	if c.Size() != rp.Ranks {
		return fmt.Errorf("sched: schedule %q compiled for %d ranks, communicator has %d", rp.Name, rp.Ranks, c.Size())
	}
	if c.Rank() != rp.Rank {
		return fmt.Errorf("sched: rank program %q belongs to rank %d, communicator rank is %d", rp.Name, rp.Rank, c.Rank())
	}
	if block <= 0 {
		return fmt.Errorf("sched: block must be positive, got %d", block)
	}
	for i, sz := range rp.Scratch {
		comm.Stage(&e.scratch[i], send, sz*block) // refs slice the whole buffer
	}
	ref := func(r Ref) comm.Buffer {
		var b comm.Buffer
		switch r.Buf {
		case SpaceSend:
			b = send
		case SpaceRecv:
			b = recv
		default:
			b = e.scratch[r.Buf-SpaceScratch]
		}
		return b.Slice(int(r.Off)*block, int(r.N)*block)
	}

	var reqs []comm.Request
	for ri, steps := range rp.Rounds {
		tag := TagBase + ri
		reqs = reqs[:0]
		for i := range steps {
			st := &steps[i]
			if st.Kind == Recv || st.Kind == SendRecv {
				rq, err := c.Irecv(ref(st.Dst), int(st.From), tag)
				if err != nil {
					return fmt.Errorf("sched: %s round %d recv from %d: %w", rp.Name, ri, st.From, err)
				}
				reqs = append(reqs, rq)
			}
		}
		for i := range steps {
			st := &steps[i]
			switch st.Kind {
			case Copy:
				t0 := c.Now()
				if _, err := comm.CopyData(ref(st.Dst), ref(st.Src)); err != nil {
					return fmt.Errorf("sched: %s round %d copy: %w", rp.Name, ri, err)
				}
				if err := c.ChargeCopy(int(st.Src.N)*block, 1); err != nil {
					return fmt.Errorf("sched: %s round %d copy: %w", rp.Name, ri, err)
				}
				rec.Add(trace.PhaseRepack, c.Now()-t0)
			case Send, SendRecv:
				rq, err := c.Isend(ref(st.Src), int(st.To), tag)
				if err != nil {
					return fmt.Errorf("sched: %s round %d send to %d: %w", rp.Name, ri, st.To, err)
				}
				reqs = append(reqs, rq)
			case Recv:
				// Posted above.
			default:
				return fmt.Errorf("sched: %s round %d: kind %q is not executable", rp.Name, ri, st.Kind)
			}
		}
		if err := c.WaitAll(reqs); err != nil {
			return fmt.Errorf("sched: %s round %d: %w", rp.Name, ri, err)
		}
	}
	return nil
}
