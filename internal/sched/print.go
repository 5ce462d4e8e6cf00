package sched

import (
	"fmt"
	"strings"
)

// matrixRanks is the largest world whose per-round message matrices
// Format still renders; beyond it only the per-round stats lines appear.
const matrixRanks = 16

// FormatRef renders a buffer reference as space[off:n] with the space's
// conventional name: the user buffers as "send" and "recv", scratch
// spaces as "s0", "s1", ...
func FormatRef(r Ref) string {
	var buf string
	switch r.Buf {
	case SpaceSend:
		buf = "send"
	case SpaceRecv:
		buf = "recv"
	default:
		buf = fmt.Sprintf("s%d", r.Buf-SpaceScratch)
	}
	return fmt.Sprintf("%s[%d:%d]", buf, r.Off, r.N)
}

// Format renders a world, its programs indexed by rank, for human
// inspection: a header naming the collective (and, for reductions, the
// operator label), the aggregate stats, and per round the message
// matrix (worlds up to matrixRanks ranks) plus every reduce step with
// its operator and operand refs — "acc op= partial", the executor's
// acc = acc op in contract.
func Format(world []*RankProgram) string {
	var b strings.Builder
	h, p := world[0], len(world)
	st := WorldStats(world)
	coll := h.Collective()
	if coll.reduction() {
		fmt.Fprintf(&b, "schedule %q (%s, op %s): %d ranks, %d rounds\n", h.Name, coll, h.Op, p, st.Rounds)
	} else {
		fmt.Fprintf(&b, "schedule %q (%s): %d ranks, %d rounds\n", h.Name, coll, p, st.Rounds)
	}
	fmt.Fprintf(&b, "  messages      %d (max %d per round)\n", st.Messages, st.MaxRoundMessages)
	fmt.Fprintf(&b, "  wire volume   %d blocks\n", st.WireBlocks)
	fmt.Fprintf(&b, "  repack        %d copies, %d blocks\n", st.Copies, st.CopyBlocks)
	if coll.reduction() {
		fmt.Fprintf(&b, "  reduce        %d steps, %d blocks\n", st.Reduces, st.ReduceBlocks)
	}
	fmt.Fprintf(&b, "  scratch       %d blocks per rank\n", st.ScratchBlocks)
	for ri := range st.Rounds {
		m := RoundMatrix(world, ri)
		msgs, vol := 0, 0
		for _, row := range m {
			for _, n := range row {
				if n > 0 {
					msgs++
					vol += n
				}
			}
		}
		fmt.Fprintf(&b, "round %d: %d messages, %d blocks\n", ri, msgs, vol)
		if p <= matrixRanks {
			for src, row := range m {
				fmt.Fprintf(&b, "  %3d |", src)
				for _, n := range row {
					if n == 0 {
						fmt.Fprintf(&b, "  .")
					} else {
						fmt.Fprintf(&b, " %2d", n)
					}
				}
				fmt.Fprintln(&b)
			}
			for r, rp := range world {
				for _, stp := range rp.Rounds[ri] {
					if stp.Kind == Reduce {
						fmt.Fprintf(&b, "  rank %d: %s %s= %s\n", r, FormatRef(stp.Dst), stp.Op, FormatRef(stp.Src))
					}
				}
			}
		}
	}
	return b.String()
}
