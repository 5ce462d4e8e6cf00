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
// inspection: a header naming the collective, the aggregate stats, and
// per round the message matrix (worlds up to matrixRanks ranks).
func Format(world []*RankProgram) string {
	var b strings.Builder
	h, p := world[0], len(world)
	st := WorldStats(world)
	fmt.Fprintf(&b, "schedule %q (%s): %d ranks, %d rounds\n", h.Name, h.Collective(), p, st.Rounds)
	fmt.Fprintf(&b, "  messages      %d (max %d per round)\n", st.Messages, st.MaxRoundMessages)
	fmt.Fprintf(&b, "  wire volume   %d blocks\n", st.WireBlocks)
	fmt.Fprintf(&b, "  repack        %d copies, %d blocks\n", st.Copies, st.CopyBlocks)
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
		}
	}
	return b.String()
}
