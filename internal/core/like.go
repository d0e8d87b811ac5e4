package core

import (
	"fmt"

	"wasmdb/internal/sema"
	"wasmdb/internal/wasm"
)

// like compiles a LIKE predicate. Every pattern becomes a monomorphic
// generated matcher specialized to the pattern class, the needle length, and
// the operand's CHAR width — ad-hoc library generation in miniature (§5): no
// generic regex machinery exists at runtime, only the loop this pattern
// needs. A parameterized pattern (Like.PIdx ≥ 0) reads its needle bytes from
// the parameter region instead of the constant region; the matcher's shape is
// unchanged, so queries differing only in the pattern text share a module.
func (g *gen) like(e *env, x *sema.Like) {
	w := x.E.Type().Length
	fn := g.c.likeFunc(x, w)
	g.expr(e, x.E)
	g.f.Call(fn.Index)
	if x.Not {
		g.f.I32Eqz()
	}
}

func (c *compiler) likeFunc(x *sema.Like, w int) *wasm.FuncBuilder {
	needle := x.Needle
	if x.Kind == sema.LikeComplex {
		needle = x.Pattern
	}
	var key string
	var addr uint32
	if x.PIdx >= 0 {
		slot, ok := c.paramSlots[x.PIdx]
		if !ok {
			if c.err == nil {
				c.err = fmt.Errorf("core: LIKE parameter ?%d has no slot", x.PIdx)
			}
			stub := c.b.NewFunc(fmt.Sprintf("like_err_%d", len(c.likes)),
				wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
			stub.I32Const(0)
			return stub
		}
		addr = uint32(paramBase) + slot.Off
		// Each parameter slot holds exactly one needle, so the slot index
		// identifies the matcher.
		key = fmt.Sprintf("%d|%d|p%d", x.Kind, w, x.PIdx)
	} else {
		addr = c.internString(needle)
		key = fmt.Sprintf("%d|%d|%s", x.Kind, w, x.Pattern)
	}
	if f, ok := c.likes[key]; ok {
		return f
	}
	f := c.b.NewFunc(fmt.Sprintf("like_%d", len(c.likes)),
		wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	c.likes[key] = f

	switch x.Kind {
	case sema.LikeExact:
		c.emitLikeExact(f, addr, len(needle), w)
	case sema.LikePrefix:
		c.emitLikePrefix(f, addr, len(needle), w)
	case sema.LikeSuffix:
		c.emitLikeSuffix(f, addr, len(needle), w)
	case sema.LikeContains:
		c.emitLikeContains(f, addr, len(needle), w)
	default:
		c.emitLikeComplex(f, addr, len(needle), w)
	}
	return f
}

// emitMemEq emits code pushing 1 if the nlen bytes at the address in the
// local p equal the nlen bytes at the fixed address addr (constant region for
// baked needles, parameter region for hoisted ones): the needle's length is
// known, so this is emitCharEq's straight-line chunk comparison of two
// values of that width.
func (c *compiler) emitMemEq(f *wasm.FuncBuilder, p wasm.Local, addr uint32, nlen int) {
	g := &gen{c: c, f: f}
	needle := f.AddLocal(wasm.I32)
	f.I32Const(int32(addr))
	f.LocalSet(needle)
	g.emitCharEq(g.localChars(p, 0), nlen, g.localChars(needle, 0), nlen)
}

func (c *compiler) emitLikeExact(f *wasm.FuncBuilder, addr uint32, nlen, w int) {
	if nlen > w {
		f.I32Const(0)
		return
	}
	llen := f.AddLocal(wasm.I32)
	emitLogicalLen(f, f.Param(0), llen, w)
	// llen == len(needle) && memeq
	f.LocalGet(llen)
	f.I32Const(int32(nlen))
	f.I32Eq()
	f.If(wasm.BlockOf(wasm.I32))
	c.emitMemEq(f, f.Param(0), addr, nlen)
	f.Else()
	f.I32Const(0)
	f.End()
}

func (c *compiler) emitLikePrefix(f *wasm.FuncBuilder, addr uint32, nlen, w int) {
	if nlen > w {
		f.I32Const(0)
		return
	}
	c.emitMemEq(f, f.Param(0), addr, nlen)
}

func (c *compiler) emitLikeSuffix(f *wasm.FuncBuilder, addr uint32, nlen, w int) {
	if nlen > w {
		f.I32Const(0)
		return
	}
	llen := f.AddLocal(wasm.I32)
	p := f.AddLocal(wasm.I32)
	emitLogicalLen(f, f.Param(0), llen, w)
	// llen >= len && memeq at llen-len
	f.LocalGet(llen)
	f.I32Const(int32(nlen))
	f.I32GeU()
	f.If(wasm.BlockOf(wasm.I32))
	f.LocalGet(f.Param(0))
	f.LocalGet(llen)
	f.I32Add()
	f.I32Const(int32(nlen))
	f.I32Sub()
	f.LocalSet(p)
	c.emitMemEq(f, p, addr, nlen)
	f.Else()
	f.I32Const(0)
	f.End()
}

func (c *compiler) emitLikeContains(f *wasm.FuncBuilder, addr uint32, nlen, w int) {
	if nlen > w {
		f.I32Const(0)
		return
	}
	llen := f.AddLocal(wasm.I32)
	off := f.AddLocal(wasm.I32)
	p := f.AddLocal(wasm.I32)
	emitLogicalLen(f, f.Param(0), llen, w)
	f.I32Const(0)
	f.LocalSet(off)
	f.Block(wasm.BlockOf(wasm.I32))
	f.Loop(wasm.BlockOf(wasm.I32))
	// if off + len > llen: no match
	f.I32Const(0)
	f.LocalGet(off)
	f.I32Const(int32(nlen))
	f.I32Add()
	f.LocalGet(llen)
	f.Op(wasm.OpI32GtU)
	f.BrIf(1)
	f.Drop()
	// if memeq at off: match
	f.I32Const(1)
	f.LocalGet(f.Param(0))
	f.LocalGet(off)
	f.I32Add()
	f.LocalSet(p)
	c.emitMemEq(f, p, addr, nlen)
	f.BrIf(1)
	f.Drop()
	f.LocalAddI32(off, 1)
	f.Br(0)
	f.End()
	f.End()
}

// emitLikeComplex generates the classic iterative glob matcher with
// single-star backtracking over the logical string, reading the pattern from
// the fixed address pAddr (constant region, or parameter region when the
// pattern is hoisted).
func (c *compiler) emitLikeComplex(f *wasm.FuncBuilder, pAddr uint32, patLen, w int) {
	plen := int32(patLen)

	llen := f.AddLocal(wasm.I32)
	s := f.AddLocal(wasm.I32)
	p := f.AddLocal(wasm.I32)
	star := f.AddLocal(wasm.I32)
	ss := f.AddLocal(wasm.I32)
	pc := f.AddLocal(wasm.I32) // current pattern byte

	emitLogicalLen(f, f.Param(0), llen, w)
	f.I32Const(-1)
	f.LocalSet(star)

	f.Block(wasm.BlockOf(wasm.I32)) // result
	f.Loop(wasm.BlockOf(wasm.I32))
	// while s < llen
	f.LocalGet(s)
	f.LocalGet(llen)
	f.I32GeU()
	f.If(wasm.BlockVoid)
	// Consume trailing %'s: while p < plen && pat[p] == '%': p++
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(p)
	f.I32Const(plen)
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(p)
	f.I32Load8U(pAddr)
	f.I32Const('%')
	f.I32Ne()
	f.BrIf(1)
	f.LocalAddI32(p, 1)
	f.Br(0)
	f.End()
	f.End()
	// return p == plen
	f.LocalGet(p)
	f.I32Const(plen)
	f.I32Eq()
	f.Br(2) // to result block
	f.End()

	// pc = p < plen ? pat[p] : 0
	f.LocalGet(p)
	f.I32Const(plen)
	f.Op(wasm.OpI32LtU)
	f.If(wasm.BlockOf(wasm.I32))
	f.LocalGet(p)
	f.I32Load8U(pAddr)
	f.Else()
	f.I32Const(0)
	f.End()
	f.LocalSet(pc)

	// if pc == '%': star = p, ss = s, p++
	f.LocalGet(pc)
	f.I32Const('%')
	f.I32Eq()
	f.If(wasm.BlockVoid)
	f.LocalGet(p)
	f.LocalSet(star)
	f.LocalGet(s)
	f.LocalSet(ss)
	f.LocalAddI32(p, 1)
	f.Else()
	// else if pc == '_' or pc == str[s]: s++, p++
	f.LocalGet(pc)
	f.I32Const('_')
	f.I32Eq()
	f.LocalGet(pc)
	f.LocalGet(f.Param(0))
	f.LocalGet(s)
	f.I32Add()
	f.I32Load8U(0)
	f.I32Eq()
	f.I32Or()
	f.If(wasm.BlockVoid)
	f.LocalAddI32(s, 1)
	f.LocalAddI32(p, 1)
	f.Else()
	// else if star >= 0: p = star+1, ss++, s = ss
	f.LocalGet(star)
	f.I32Const(0)
	f.Op(wasm.OpI32GeS)
	f.If(wasm.BlockVoid)
	f.LocalGet(star)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(p)
	f.LocalGet(ss)
	f.I32Const(1)
	f.I32Add()
	f.LocalTee(ss)
	f.LocalSet(s)
	f.Else()
	// else: no match
	f.I32Const(0)
	f.Br(4)
	f.End()
	f.End()
	f.End()
	f.Br(0)
	f.End() // loop
	f.End() // result block
}

// emitLogicalLen emits code computing the logical (padding-stripped)
// length of the CHAR value at the pointer in ptr, storing it into llen.
func emitLogicalLen(f *wasm.FuncBuilder, ptr wasm.Local, llen wasm.Local, w int) {
	f.I32Const(int32(w))
	f.LocalSet(llen)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(llen)
	f.I32Eqz()
	f.BrIf(1)
	f.LocalGet(ptr)
	f.LocalGet(llen)
	f.I32Add()
	f.I32Const(1)
	f.I32Sub()
	f.I32Load8U(0)
	f.I32Const(32)
	f.I32Ne()
	f.BrIf(1)
	f.LocalGet(llen)
	f.I32Const(1)
	f.I32Sub()
	f.LocalSet(llen)
	f.Br(0)
	f.End()
	f.End()
}
