package turbofan

// A block is a basic block; branch instruction imm fields hold target block
// ids while optimization runs, and the block falls through to its successor
// in graph order unless it ends in an unconditional transfer.
type block struct {
	ins []tin
}

type graph struct {
	blocks []block
	tables [][]uint32 // entries are block ids during optimization
}

// buildBlocks splits linear code (with pc targets) into basic blocks over ins
// itself and rewrites targets to block ids in place.
func buildBlocks(ins []tin, tables [][]uint32) *graph {
	n := len(ins)
	leader := make([]bool, n+1)
	leader[0] = true
	for i, t := range ins {
		if br, _ := isBranch(t.op); !br {
			continue
		}
		leader[i+1] = true
		if hasTarget(t.op) {
			leader[t.imm] = true
		}
	}
	for _, tbl := range tables {
		for _, pc := range tbl {
			leader[pc] = true
		}
	}
	blockOf := make([]int, n+1)
	id := -1
	for i := 0; i <= n; i++ {
		if i < n && leader[i] {
			id++
		}
		blockOf[i] = id
	}
	// A trailing target pointing one past the end maps to a synthetic final
	// empty block.
	numBlocks := id + 1
	if leader[n] {
		blockOf[n] = numBlocks
		numBlocks++
	} else {
		blockOf[n] = numBlocks - 1
	}
	// Each block is ins capped at its end.
	g := &graph{blocks: make([]block, numBlocks)}
	for i, start := 0, 0; i < n; i++ {
		if i+1 == n || leader[i+1] {
			g.blocks[blockOf[i]].ins = ins[start : i+1 : i+1]
			start = i + 1
		}
	}
	// Rewrite pc targets to block ids.
	for bi := range g.blocks {
		for ii := range g.blocks[bi].ins {
			t := &g.blocks[bi].ins[ii]
			if hasTarget(t.op) {
				t.imm = uint64(blockOf[t.imm])
			}
		}
	}
	g.tables = make([][]uint32, len(tables))
	for ti, tbl := range tables {
		g.tables[ti] = make([]uint32, len(tbl))
		for i, pc := range tbl {
			g.tables[ti][i] = uint32(blockOf[pc])
		}
	}
	return g
}

// successors appends the successor block ids of block bi to dst.
func (g *graph) successors(bi int, dst []int) []int {
	ins := g.blocks[bi].ins
	fall := true
	if len(ins) > 0 {
		last := ins[len(ins)-1]
		if br, uncond := isBranch(last.op); br {
			if hasTarget(last.op) {
				dst = append(dst, int(last.imm))
			}
			if last.op == tBrTable {
				for _, t := range g.tables[last.imm] {
					dst = append(dst, int(t))
				}
			}
			fall = !uncond
		}
	}
	if fall && bi+1 < len(g.blocks) {
		dst = append(dst, bi+1)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Optimizer.

type optimizer struct {
	g     *graph
	nRegs int
	code  *Code
}

// deadCodeElim removes pure instructions whose results are never used,
// using global liveness over the block graph. With peepholes set (the last
// round), the removal walk also applies the rewrites that need to know a
// register is dead (isel.go) — they reuse this pass's liveness, so they pay
// for no fix-point of their own.
func (o *optimizer) deadCodeElim(peepholes bool) {
	nb := len(o.g.blocks)
	words := (o.nRegs + 63) / 64
	// Per block: the registers live at entry and at exit, and the ones the
	// block reads before writing them (use) and writes (def).
	slab := make([]uint64, 4*nb*words)
	sets := func(i int) []uint64 { return slab[i*words : (i+1)*words : (i+1)*words] }
	liveIn, liveOut, use, def := make([][]uint64, nb), make([][]uint64, nb), make([][]uint64, nb), make([][]uint64, nb)
	set := func(bs []uint64, r int32) { bs[r>>6] |= 1 << (r & 63) }
	clear := func(bs []uint64, r int32) { bs[r>>6] &^= 1 << (r & 63) }
	for bi := range o.g.blocks {
		liveIn[bi], liveOut[bi], use[bi], def[bi] = sets(4*bi), sets(4*bi+1), sets(4*bi+2), sets(4*bi+3)
		ins := o.g.blocks[bi].ins
		for ii := len(ins) - 1; ii >= 0; ii-- {
			t := &ins[ii]
			if t.op == tNop {
				continue
			}
			regDefs(t, func(r int32) { set(def[bi], r); clear(use[bi], r) })
			o.code.regUses(t, func(r int32) { set(use[bi], r) })
		}
	}

	// Backward fixpoint over the blocks: in = use ∪ (out − def).
	scratch := make([]uint64, words)
	var succ []int
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			succ = o.g.successors(bi, succ[:0])
			out := liveOut[bi]
			for w := range out {
				out[w] = 0
			}
			for _, s := range succ {
				for w := range out {
					out[w] |= liveIn[s][w]
				}
			}
			for w := range out {
				if in := use[bi][w] | out[w]&^def[bi][w]; in != liveIn[bi][w] {
					liveIn[bi][w] = in
					changed = true
				}
			}
		}
	}

	// Removal pass: walk each block backwards with running liveness.
	live := liveSet(scratch)
	for bi := 0; bi < nb; bi++ {
		copy(scratch, liveOut[bi])
		ins := o.g.blocks[bi].ins
		for ii := len(ins) - 1; ii >= 0; ii-- {
			t := &ins[ii]
			if t.op == tNop {
				continue
			}
			if pure(t.op) && !live.has(t.d) {
				*t = tin{op: tNop}
				continue
			}
			if peepholes {
				o.code.peephole(ins, ii, live)
			}
			regDefs(t, func(r int32) { clear(scratch, r) })
			o.code.regUses(t, func(r int32) { set(scratch, r) })
		}
	}
}

// liveSet is a register bit set; during the removal walk it holds the
// registers live after the instruction being visited.
type liveSet []uint64

func (l liveSet) has(r int32) bool { return l[r>>6]&(1<<(r&63)) != 0 }

// ---------------------------------------------------------------------------
// Linearization: blocks → final instruction stream with pc targets.

// maxRotatedHeader bounds how many instructions of a loop header are copied
// to the loop's bottom when the loop is rotated.
const maxRotatedHeader = 4

func linearize(c *Code, g *graph) {
	// Emit blocks in order, dropping nops and jumps to the next block,
	// rotating loops at their back-edges, and record each block's start pc.
	n := 0
	for _, b := range g.blocks {
		n += len(b.ins)
	}
	out := make([]tin, 0, n+2*maxRotatedHeader)
	start := make([]int, len(g.blocks)+1)
	for bi := range g.blocks {
		start[bi] = len(out)
		for _, t := range g.blocks[bi].ins {
			switch {
			case t.op == tNop, t.op == tJump && int(t.imm) == bi+1:
			case t.op == tJump && int(t.imm) <= bi:
				out = g.rotate(out, bi, t)
			default:
				out = append(out, t)
			}
		}
	}
	start[len(g.blocks)] = len(out)
	// Rewrite block-id targets to pcs.
	for i := range out {
		if hasTarget(out[i].op) {
			out[i].imm = uint64(start[out[i].imm])
		}
	}
	c.tables = make([][]uint32, len(g.tables))
	for ti, tbl := range g.tables {
		c.tables[ti] = make([]uint32, len(tbl))
		for i, b := range tbl {
			c.tables[ti][i] = uint32(start[b])
		}
	}
	// Guarantee the stream ends in a control transfer (lowering always emits
	// tRet, but a trailing empty block may remain a jump target).
	if n := len(out); n == 0 || !isUncond(out[n-1].op) {
		out = append(out, tin{op: tRet})
	}
	c.ins = out
}

// rotate emits the back-edge jump that ends block bi. When the loop header it
// targets is a few pure instructions and a conditional exit branch, the
// header is copied here with the branch inverted — a bottom-tested loop: each
// iteration dispatches one branch instead of the jump plus the header's
// branch. Pure instructions can be re-executed in place without an observable
// difference, and the original header stays where it is for the loop's entry
// and for any other branch to it.
//
// Fuel: the jump charged one unit per completed iteration. The inverted
// branch is a taken backward branch while the loop continues, so it charges
// the same unit; on the last iteration it falls through to an explicit fuel
// charge. Both tiers therefore burn the same fuel whenever tier-up lands. The
// exit target must lie behind this block, or the jump to it would itself be
// a backward branch the original never took.
func (g *graph) rotate(out []tin, bi int, jump tin) []tin {
	h := int(jump.imm)
	var header [maxRotatedHeader + 1]tin
	n := 0
	for _, t := range g.blocks[h].ins {
		if t.op == tNop {
			continue
		}
		if n == len(header) || n > 0 && !pure(header[n-1].op) {
			return append(out, jump)
		}
		header[n] = t
		n++
	}
	if n == 0 {
		return append(out, jump)
	}
	exit := header[n-1]
	if ops[exit.op].inv == 0 || int(exit.imm) <= bi {
		return append(out, jump)
	}
	out = append(out, header[:n-1]...)
	out = append(out, tin{op: ops[exit.op].inv, a: exit.a, b: exit.b, imm: uint64(h + 1)}, tin{op: tFuel})
	if int(exit.imm) != bi+1 {
		out = append(out, tin{op: tJump, imm: exit.imm})
	}
	return out
}

func isUncond(op uint16) bool {
	_, u := isBranch(op)
	return u
}
