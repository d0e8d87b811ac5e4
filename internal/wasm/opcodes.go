package wasm

// Opcode is a single-byte WebAssembly MVP opcode.
type Opcode byte

// Control instructions.
const (
	OpUnreachable  Opcode = 0x00
	OpNop          Opcode = 0x01
	OpBlock        Opcode = 0x02
	OpLoop         Opcode = 0x03
	OpIf           Opcode = 0x04
	OpElse         Opcode = 0x05
	OpEnd          Opcode = 0x0B
	OpBr           Opcode = 0x0C
	OpBrIf         Opcode = 0x0D
	OpBrTable      Opcode = 0x0E
	OpReturn       Opcode = 0x0F
	OpCall         Opcode = 0x10
	OpCallIndirect Opcode = 0x11
)

// Parametric instructions.
const (
	OpDrop   Opcode = 0x1A
	OpSelect Opcode = 0x1B
)

// Variable instructions.
const (
	OpLocalGet  Opcode = 0x20
	OpLocalSet  Opcode = 0x21
	OpLocalTee  Opcode = 0x22
	OpGlobalGet Opcode = 0x23
	OpGlobalSet Opcode = 0x24
)

// Memory instructions.
const (
	OpI32Load    Opcode = 0x28
	OpI64Load    Opcode = 0x29
	OpF32Load    Opcode = 0x2A
	OpF64Load    Opcode = 0x2B
	OpI32Load8S  Opcode = 0x2C
	OpI32Load8U  Opcode = 0x2D
	OpI32Load16S Opcode = 0x2E
	OpI32Load16U Opcode = 0x2F
	OpI64Load8S  Opcode = 0x30
	OpI64Load8U  Opcode = 0x31
	OpI64Load16S Opcode = 0x32
	OpI64Load16U Opcode = 0x33
	OpI64Load32S Opcode = 0x34
	OpI64Load32U Opcode = 0x35
	OpI32Store   Opcode = 0x36
	OpI64Store   Opcode = 0x37
	OpF32Store   Opcode = 0x38
	OpF64Store   Opcode = 0x39
	OpI32Store8  Opcode = 0x3A
	OpI32Store16 Opcode = 0x3B
	OpI64Store8  Opcode = 0x3C
	OpI64Store16 Opcode = 0x3D
	OpI64Store32 Opcode = 0x3E
	OpMemorySize Opcode = 0x3F
	OpMemoryGrow Opcode = 0x40
)

// Constant instructions.
const (
	OpI32Const Opcode = 0x41
	OpI64Const Opcode = 0x42
	OpF32Const Opcode = 0x43
	OpF64Const Opcode = 0x44
)

// i32 comparison instructions.
const (
	OpI32Eqz Opcode = 0x45
	OpI32Eq  Opcode = 0x46
	OpI32Ne  Opcode = 0x47
	OpI32LtS Opcode = 0x48
	OpI32LtU Opcode = 0x49
	OpI32GtS Opcode = 0x4A
	OpI32GtU Opcode = 0x4B
	OpI32LeS Opcode = 0x4C
	OpI32LeU Opcode = 0x4D
	OpI32GeS Opcode = 0x4E
	OpI32GeU Opcode = 0x4F
)

// i64 comparison instructions.
const (
	OpI64Eqz Opcode = 0x50
	OpI64Eq  Opcode = 0x51
	OpI64Ne  Opcode = 0x52
	OpI64LtS Opcode = 0x53
	OpI64LtU Opcode = 0x54
	OpI64GtS Opcode = 0x55
	OpI64GtU Opcode = 0x56
	OpI64LeS Opcode = 0x57
	OpI64LeU Opcode = 0x58
	OpI64GeS Opcode = 0x59
	OpI64GeU Opcode = 0x5A
)

// f32 comparison instructions.
const (
	OpF32Eq Opcode = 0x5B
	OpF32Ne Opcode = 0x5C
	OpF32Lt Opcode = 0x5D
	OpF32Gt Opcode = 0x5E
	OpF32Le Opcode = 0x5F
	OpF32Ge Opcode = 0x60
)

// f64 comparison instructions.
const (
	OpF64Eq Opcode = 0x61
	OpF64Ne Opcode = 0x62
	OpF64Lt Opcode = 0x63
	OpF64Gt Opcode = 0x64
	OpF64Le Opcode = 0x65
	OpF64Ge Opcode = 0x66
)

// i32 numeric instructions.
const (
	OpI32Clz    Opcode = 0x67
	OpI32Ctz    Opcode = 0x68
	OpI32Popcnt Opcode = 0x69
	OpI32Add    Opcode = 0x6A
	OpI32Sub    Opcode = 0x6B
	OpI32Mul    Opcode = 0x6C
	OpI32DivS   Opcode = 0x6D
	OpI32DivU   Opcode = 0x6E
	OpI32RemS   Opcode = 0x6F
	OpI32RemU   Opcode = 0x70
	OpI32And    Opcode = 0x71
	OpI32Or     Opcode = 0x72
	OpI32Xor    Opcode = 0x73
	OpI32Shl    Opcode = 0x74
	OpI32ShrS   Opcode = 0x75
	OpI32ShrU   Opcode = 0x76
	OpI32Rotl   Opcode = 0x77
	OpI32Rotr   Opcode = 0x78
)

// i64 numeric instructions.
const (
	OpI64Clz    Opcode = 0x79
	OpI64Ctz    Opcode = 0x7A
	OpI64Popcnt Opcode = 0x7B
	OpI64Add    Opcode = 0x7C
	OpI64Sub    Opcode = 0x7D
	OpI64Mul    Opcode = 0x7E
	OpI64DivS   Opcode = 0x7F
	OpI64DivU   Opcode = 0x80
	OpI64RemS   Opcode = 0x81
	OpI64RemU   Opcode = 0x82
	OpI64And    Opcode = 0x83
	OpI64Or     Opcode = 0x84
	OpI64Xor    Opcode = 0x85
	OpI64Shl    Opcode = 0x86
	OpI64ShrS   Opcode = 0x87
	OpI64ShrU   Opcode = 0x88
	OpI64Rotl   Opcode = 0x89
	OpI64Rotr   Opcode = 0x8A
)

// f32 numeric instructions.
const (
	OpF32Abs      Opcode = 0x8B
	OpF32Neg      Opcode = 0x8C
	OpF32Ceil     Opcode = 0x8D
	OpF32Floor    Opcode = 0x8E
	OpF32Trunc    Opcode = 0x8F
	OpF32Nearest  Opcode = 0x90
	OpF32Sqrt     Opcode = 0x91
	OpF32Add      Opcode = 0x92
	OpF32Sub      Opcode = 0x93
	OpF32Mul      Opcode = 0x94
	OpF32Div      Opcode = 0x95
	OpF32Min      Opcode = 0x96
	OpF32Max      Opcode = 0x97
	OpF32Copysign Opcode = 0x98
)

// f64 numeric instructions.
const (
	OpF64Abs      Opcode = 0x99
	OpF64Neg      Opcode = 0x9A
	OpF64Ceil     Opcode = 0x9B
	OpF64Floor    Opcode = 0x9C
	OpF64Trunc    Opcode = 0x9D
	OpF64Nearest  Opcode = 0x9E
	OpF64Sqrt     Opcode = 0x9F
	OpF64Add      Opcode = 0xA0
	OpF64Sub      Opcode = 0xA1
	OpF64Mul      Opcode = 0xA2
	OpF64Div      Opcode = 0xA3
	OpF64Min      Opcode = 0xA4
	OpF64Max      Opcode = 0xA5
	OpF64Copysign Opcode = 0xA6
)

// Conversion instructions.
const (
	OpI32WrapI64        Opcode = 0xA7
	OpI32TruncF32S      Opcode = 0xA8
	OpI32TruncF32U      Opcode = 0xA9
	OpI32TruncF64S      Opcode = 0xAA
	OpI32TruncF64U      Opcode = 0xAB
	OpI64ExtendI32S     Opcode = 0xAC
	OpI64ExtendI32U     Opcode = 0xAD
	OpI64TruncF32S      Opcode = 0xAE
	OpI64TruncF32U      Opcode = 0xAF
	OpI64TruncF64S      Opcode = 0xB0
	OpI64TruncF64U      Opcode = 0xB1
	OpF32ConvertI32S    Opcode = 0xB2
	OpF32ConvertI32U    Opcode = 0xB3
	OpF32ConvertI64S    Opcode = 0xB4
	OpF32ConvertI64U    Opcode = 0xB5
	OpF32DemoteF64      Opcode = 0xB6
	OpF64ConvertI32S    Opcode = 0xB7
	OpF64ConvertI32U    Opcode = 0xB8
	OpF64ConvertI64S    Opcode = 0xB9
	OpF64ConvertI64U    Opcode = 0xBA
	OpF64PromoteF32     Opcode = 0xBB
	OpI32ReinterpretF32 Opcode = 0xBC
	OpI64ReinterpretF64 Opcode = 0xBD
	OpF32ReinterpretI32 Opcode = 0xBE
	OpF64ReinterpretI64 Opcode = 0xBF
)

// Sign-extension instructions (post-MVP but universally supported).
const (
	OpI32Extend8S  Opcode = 0xC0
	OpI32Extend16S Opcode = 0xC1
	OpI64Extend8S  Opcode = 0xC2
	OpI64Extend16S Opcode = 0xC3
	OpI64Extend32S Opcode = 0xC4
)

// ImmKind classifies the immediate operands an opcode carries in the binary
// format, driving both the decoder and the encoder.
type ImmKind byte

const (
	ImmNone      ImmKind = iota
	ImmBlockType         // block, loop, if
	ImmLabel             // br, br_if: a uleb label index
	ImmBrTable           // br_table: vector of labels + default
	ImmFuncIdx           // call
	ImmTypeIdx           // call_indirect: type index + 0x00 table byte
	ImmLocalIdx          // local.get/set/tee
	ImmGlobalIdx         // global.get/set
	ImmMemArg            // loads/stores: align + offset ulebs
	ImmMemIdx            // memory.size/grow: single 0x00 byte
	ImmI32               // i32.const: sleb32
	ImmI64               // i64.const: sleb64
	ImmF32               // f32.const: 4 bytes
	ImmF64               // f64.const: 8 bytes
)

// opInfo is an opcode's row: its mnemonic, its immediates and its fixed
// signature, which the validator and the compilers read.
type opInfo struct {
	name string
	imm  ImmKind
	sig  sig
}

// sig is a fixed signature: the opcode pops in[:n] and pushes out unless out
// is 0. The zero sig marks an opcode without one (control, calls, locals,
// globals, drop and select), whose effect depends on its immediates or its
// context; no fixed signature pops and pushes nothing.
type sig struct {
	in  [2]ValType
	n   uint8
	out ValType
}

func un(a, r ValType) sig  { return sig{in: [2]ValType{a}, n: 1, out: r} }
func bin(a, r ValType) sig { return sig{in: [2]ValType{a, a}, n: 2, out: r} }
func st(t ValType) sig     { return sig{in: [2]ValType{I32, t}, n: 2} }
func push(t ValType) sig   { return sig{out: t} }

var opTable = [256]opInfo{
	OpUnreachable:  {"unreachable", ImmNone, sig{}},
	OpNop:          {"nop", ImmNone, sig{}},
	OpBlock:        {"block", ImmBlockType, sig{}},
	OpLoop:         {"loop", ImmBlockType, sig{}},
	OpIf:           {"if", ImmBlockType, sig{}},
	OpElse:         {"else", ImmNone, sig{}},
	OpEnd:          {"end", ImmNone, sig{}},
	OpBr:           {"br", ImmLabel, sig{}},
	OpBrIf:         {"br_if", ImmLabel, sig{}},
	OpBrTable:      {"br_table", ImmBrTable, sig{}},
	OpReturn:       {"return", ImmNone, sig{}},
	OpCall:         {"call", ImmFuncIdx, sig{}},
	OpCallIndirect: {"call_indirect", ImmTypeIdx, sig{}},

	OpDrop:   {"drop", ImmNone, sig{}},
	OpSelect: {"select", ImmNone, sig{}},

	OpLocalGet:  {"local.get", ImmLocalIdx, sig{}},
	OpLocalSet:  {"local.set", ImmLocalIdx, sig{}},
	OpLocalTee:  {"local.tee", ImmLocalIdx, sig{}},
	OpGlobalGet: {"global.get", ImmGlobalIdx, sig{}},
	OpGlobalSet: {"global.set", ImmGlobalIdx, sig{}},

	OpI32Load:    {"i32.load", ImmMemArg, un(I32, I32)},
	OpI64Load:    {"i64.load", ImmMemArg, un(I32, I64)},
	OpF32Load:    {"f32.load", ImmMemArg, un(I32, F32)},
	OpF64Load:    {"f64.load", ImmMemArg, un(I32, F64)},
	OpI32Load8S:  {"i32.load8_s", ImmMemArg, un(I32, I32)},
	OpI32Load8U:  {"i32.load8_u", ImmMemArg, un(I32, I32)},
	OpI32Load16S: {"i32.load16_s", ImmMemArg, un(I32, I32)},
	OpI32Load16U: {"i32.load16_u", ImmMemArg, un(I32, I32)},
	OpI64Load8S:  {"i64.load8_s", ImmMemArg, un(I32, I64)},
	OpI64Load8U:  {"i64.load8_u", ImmMemArg, un(I32, I64)},
	OpI64Load16S: {"i64.load16_s", ImmMemArg, un(I32, I64)},
	OpI64Load16U: {"i64.load16_u", ImmMemArg, un(I32, I64)},
	OpI64Load32S: {"i64.load32_s", ImmMemArg, un(I32, I64)},
	OpI64Load32U: {"i64.load32_u", ImmMemArg, un(I32, I64)},
	OpI32Store:   {"i32.store", ImmMemArg, st(I32)},
	OpI64Store:   {"i64.store", ImmMemArg, st(I64)},
	OpF32Store:   {"f32.store", ImmMemArg, st(F32)},
	OpF64Store:   {"f64.store", ImmMemArg, st(F64)},
	OpI32Store8:  {"i32.store8", ImmMemArg, st(I32)},
	OpI32Store16: {"i32.store16", ImmMemArg, st(I32)},
	OpI64Store8:  {"i64.store8", ImmMemArg, st(I64)},
	OpI64Store16: {"i64.store16", ImmMemArg, st(I64)},
	OpI64Store32: {"i64.store32", ImmMemArg, st(I64)},
	OpMemorySize: {"memory.size", ImmMemIdx, push(I32)},
	OpMemoryGrow: {"memory.grow", ImmMemIdx, un(I32, I32)},

	OpI32Const: {"i32.const", ImmI32, push(I32)},
	OpI64Const: {"i64.const", ImmI64, push(I64)},
	OpF32Const: {"f32.const", ImmF32, push(F32)},
	OpF64Const: {"f64.const", ImmF64, push(F64)},

	OpI32Eqz: {"i32.eqz", ImmNone, un(I32, I32)},
	OpI32Eq:  {"i32.eq", ImmNone, bin(I32, I32)},
	OpI32Ne:  {"i32.ne", ImmNone, bin(I32, I32)},
	OpI32LtS: {"i32.lt_s", ImmNone, bin(I32, I32)},
	OpI32LtU: {"i32.lt_u", ImmNone, bin(I32, I32)},
	OpI32GtS: {"i32.gt_s", ImmNone, bin(I32, I32)},
	OpI32GtU: {"i32.gt_u", ImmNone, bin(I32, I32)},
	OpI32LeS: {"i32.le_s", ImmNone, bin(I32, I32)},
	OpI32LeU: {"i32.le_u", ImmNone, bin(I32, I32)},
	OpI32GeS: {"i32.ge_s", ImmNone, bin(I32, I32)},
	OpI32GeU: {"i32.ge_u", ImmNone, bin(I32, I32)},

	OpI64Eqz: {"i64.eqz", ImmNone, un(I64, I32)},
	OpI64Eq:  {"i64.eq", ImmNone, bin(I64, I32)},
	OpI64Ne:  {"i64.ne", ImmNone, bin(I64, I32)},
	OpI64LtS: {"i64.lt_s", ImmNone, bin(I64, I32)},
	OpI64LtU: {"i64.lt_u", ImmNone, bin(I64, I32)},
	OpI64GtS: {"i64.gt_s", ImmNone, bin(I64, I32)},
	OpI64GtU: {"i64.gt_u", ImmNone, bin(I64, I32)},
	OpI64LeS: {"i64.le_s", ImmNone, bin(I64, I32)},
	OpI64LeU: {"i64.le_u", ImmNone, bin(I64, I32)},
	OpI64GeS: {"i64.ge_s", ImmNone, bin(I64, I32)},
	OpI64GeU: {"i64.ge_u", ImmNone, bin(I64, I32)},

	OpF32Eq: {"f32.eq", ImmNone, bin(F32, I32)},
	OpF32Ne: {"f32.ne", ImmNone, bin(F32, I32)},
	OpF32Lt: {"f32.lt", ImmNone, bin(F32, I32)},
	OpF32Gt: {"f32.gt", ImmNone, bin(F32, I32)},
	OpF32Le: {"f32.le", ImmNone, bin(F32, I32)},
	OpF32Ge: {"f32.ge", ImmNone, bin(F32, I32)},

	OpF64Eq: {"f64.eq", ImmNone, bin(F64, I32)},
	OpF64Ne: {"f64.ne", ImmNone, bin(F64, I32)},
	OpF64Lt: {"f64.lt", ImmNone, bin(F64, I32)},
	OpF64Gt: {"f64.gt", ImmNone, bin(F64, I32)},
	OpF64Le: {"f64.le", ImmNone, bin(F64, I32)},
	OpF64Ge: {"f64.ge", ImmNone, bin(F64, I32)},

	OpI32Clz:    {"i32.clz", ImmNone, un(I32, I32)},
	OpI32Ctz:    {"i32.ctz", ImmNone, un(I32, I32)},
	OpI32Popcnt: {"i32.popcnt", ImmNone, un(I32, I32)},
	OpI32Add:    {"i32.add", ImmNone, bin(I32, I32)},
	OpI32Sub:    {"i32.sub", ImmNone, bin(I32, I32)},
	OpI32Mul:    {"i32.mul", ImmNone, bin(I32, I32)},
	OpI32DivS:   {"i32.div_s", ImmNone, bin(I32, I32)},
	OpI32DivU:   {"i32.div_u", ImmNone, bin(I32, I32)},
	OpI32RemS:   {"i32.rem_s", ImmNone, bin(I32, I32)},
	OpI32RemU:   {"i32.rem_u", ImmNone, bin(I32, I32)},
	OpI32And:    {"i32.and", ImmNone, bin(I32, I32)},
	OpI32Or:     {"i32.or", ImmNone, bin(I32, I32)},
	OpI32Xor:    {"i32.xor", ImmNone, bin(I32, I32)},
	OpI32Shl:    {"i32.shl", ImmNone, bin(I32, I32)},
	OpI32ShrS:   {"i32.shr_s", ImmNone, bin(I32, I32)},
	OpI32ShrU:   {"i32.shr_u", ImmNone, bin(I32, I32)},
	OpI32Rotl:   {"i32.rotl", ImmNone, bin(I32, I32)},
	OpI32Rotr:   {"i32.rotr", ImmNone, bin(I32, I32)},

	OpI64Clz:    {"i64.clz", ImmNone, un(I64, I64)},
	OpI64Ctz:    {"i64.ctz", ImmNone, un(I64, I64)},
	OpI64Popcnt: {"i64.popcnt", ImmNone, un(I64, I64)},
	OpI64Add:    {"i64.add", ImmNone, bin(I64, I64)},
	OpI64Sub:    {"i64.sub", ImmNone, bin(I64, I64)},
	OpI64Mul:    {"i64.mul", ImmNone, bin(I64, I64)},
	OpI64DivS:   {"i64.div_s", ImmNone, bin(I64, I64)},
	OpI64DivU:   {"i64.div_u", ImmNone, bin(I64, I64)},
	OpI64RemS:   {"i64.rem_s", ImmNone, bin(I64, I64)},
	OpI64RemU:   {"i64.rem_u", ImmNone, bin(I64, I64)},
	OpI64And:    {"i64.and", ImmNone, bin(I64, I64)},
	OpI64Or:     {"i64.or", ImmNone, bin(I64, I64)},
	OpI64Xor:    {"i64.xor", ImmNone, bin(I64, I64)},
	OpI64Shl:    {"i64.shl", ImmNone, bin(I64, I64)},
	OpI64ShrS:   {"i64.shr_s", ImmNone, bin(I64, I64)},
	OpI64ShrU:   {"i64.shr_u", ImmNone, bin(I64, I64)},
	OpI64Rotl:   {"i64.rotl", ImmNone, bin(I64, I64)},
	OpI64Rotr:   {"i64.rotr", ImmNone, bin(I64, I64)},

	OpF32Abs:      {"f32.abs", ImmNone, un(F32, F32)},
	OpF32Neg:      {"f32.neg", ImmNone, un(F32, F32)},
	OpF32Ceil:     {"f32.ceil", ImmNone, un(F32, F32)},
	OpF32Floor:    {"f32.floor", ImmNone, un(F32, F32)},
	OpF32Trunc:    {"f32.trunc", ImmNone, un(F32, F32)},
	OpF32Nearest:  {"f32.nearest", ImmNone, un(F32, F32)},
	OpF32Sqrt:     {"f32.sqrt", ImmNone, un(F32, F32)},
	OpF32Add:      {"f32.add", ImmNone, bin(F32, F32)},
	OpF32Sub:      {"f32.sub", ImmNone, bin(F32, F32)},
	OpF32Mul:      {"f32.mul", ImmNone, bin(F32, F32)},
	OpF32Div:      {"f32.div", ImmNone, bin(F32, F32)},
	OpF32Min:      {"f32.min", ImmNone, bin(F32, F32)},
	OpF32Max:      {"f32.max", ImmNone, bin(F32, F32)},
	OpF32Copysign: {"f32.copysign", ImmNone, bin(F32, F32)},

	OpF64Abs:      {"f64.abs", ImmNone, un(F64, F64)},
	OpF64Neg:      {"f64.neg", ImmNone, un(F64, F64)},
	OpF64Ceil:     {"f64.ceil", ImmNone, un(F64, F64)},
	OpF64Floor:    {"f64.floor", ImmNone, un(F64, F64)},
	OpF64Trunc:    {"f64.trunc", ImmNone, un(F64, F64)},
	OpF64Nearest:  {"f64.nearest", ImmNone, un(F64, F64)},
	OpF64Sqrt:     {"f64.sqrt", ImmNone, un(F64, F64)},
	OpF64Add:      {"f64.add", ImmNone, bin(F64, F64)},
	OpF64Sub:      {"f64.sub", ImmNone, bin(F64, F64)},
	OpF64Mul:      {"f64.mul", ImmNone, bin(F64, F64)},
	OpF64Div:      {"f64.div", ImmNone, bin(F64, F64)},
	OpF64Min:      {"f64.min", ImmNone, bin(F64, F64)},
	OpF64Max:      {"f64.max", ImmNone, bin(F64, F64)},
	OpF64Copysign: {"f64.copysign", ImmNone, bin(F64, F64)},

	OpI32WrapI64:        {"i32.wrap_i64", ImmNone, un(I64, I32)},
	OpI32TruncF32S:      {"i32.trunc_f32_s", ImmNone, un(F32, I32)},
	OpI32TruncF32U:      {"i32.trunc_f32_u", ImmNone, un(F32, I32)},
	OpI32TruncF64S:      {"i32.trunc_f64_s", ImmNone, un(F64, I32)},
	OpI32TruncF64U:      {"i32.trunc_f64_u", ImmNone, un(F64, I32)},
	OpI64ExtendI32S:     {"i64.extend_i32_s", ImmNone, un(I32, I64)},
	OpI64ExtendI32U:     {"i64.extend_i32_u", ImmNone, un(I32, I64)},
	OpI64TruncF32S:      {"i64.trunc_f32_s", ImmNone, un(F32, I64)},
	OpI64TruncF32U:      {"i64.trunc_f32_u", ImmNone, un(F32, I64)},
	OpI64TruncF64S:      {"i64.trunc_f64_s", ImmNone, un(F64, I64)},
	OpI64TruncF64U:      {"i64.trunc_f64_u", ImmNone, un(F64, I64)},
	OpF32ConvertI32S:    {"f32.convert_i32_s", ImmNone, un(I32, F32)},
	OpF32ConvertI32U:    {"f32.convert_i32_u", ImmNone, un(I32, F32)},
	OpF32ConvertI64S:    {"f32.convert_i64_s", ImmNone, un(I64, F32)},
	OpF32ConvertI64U:    {"f32.convert_i64_u", ImmNone, un(I64, F32)},
	OpF32DemoteF64:      {"f32.demote_f64", ImmNone, un(F64, F32)},
	OpF64ConvertI32S:    {"f64.convert_i32_s", ImmNone, un(I32, F64)},
	OpF64ConvertI32U:    {"f64.convert_i32_u", ImmNone, un(I32, F64)},
	OpF64ConvertI64S:    {"f64.convert_i64_s", ImmNone, un(I64, F64)},
	OpF64ConvertI64U:    {"f64.convert_i64_u", ImmNone, un(I64, F64)},
	OpF64PromoteF32:     {"f64.promote_f32", ImmNone, un(F32, F64)},
	OpI32ReinterpretF32: {"i32.reinterpret_f32", ImmNone, un(F32, I32)},
	OpI64ReinterpretF64: {"i64.reinterpret_f64", ImmNone, un(F64, I64)},
	OpF32ReinterpretI32: {"f32.reinterpret_i32", ImmNone, un(I32, F32)},
	OpF64ReinterpretI64: {"f64.reinterpret_i64", ImmNone, un(I64, F64)},

	OpI32Extend8S:  {"i32.extend8_s", ImmNone, un(I32, I32)},
	OpI32Extend16S: {"i32.extend16_s", ImmNone, un(I32, I32)},
	OpI64Extend8S:  {"i64.extend8_s", ImmNone, un(I64, I64)},
	OpI64Extend16S: {"i64.extend16_s", ImmNone, un(I64, I64)},
	OpI64Extend32S: {"i64.extend32_s", ImmNone, un(I64, I64)},
}

// String returns the text-format mnemonic of the opcode.
func (op Opcode) String() string {
	info := opTable[op]
	if info.name == "" {
		return "invalid"
	}
	return info.name
}

// Imm returns the kind of immediate operands the opcode carries.
func (op Opcode) Imm() ImmKind { return opTable[op].imm }

// Known reports whether op is a defined opcode.
func (op Opcode) Known() bool { return opTable[op].name != "" }

// InOut returns the operand counts (popped, pushed) for instructions with a
// fixed signature. It reports ok=false for control, call, variable and
// parametric instructions whose effect depends on context; compilers handle
// those explicitly.
func (op Opcode) InOut() (in, out int, ok bool) {
	s := opTable[op].sig
	if s.out != 0 {
		out = 1
	}
	return int(s.n), out, s != sig{}
}

// ResultType returns the type an instruction with a fixed signature pushes,
// if it pushes exactly one value.
func (op Opcode) ResultType() (ValType, bool) {
	t := opTable[op].sig.out
	return t, t != 0
}

// Instr is a single decoded instruction. Immediate operands are packed into
// A and B depending on the opcode's ImmKind:
//
//	ImmBlockType: A = block type byte
//	ImmLabel, ImmFuncIdx, ImmLocalIdx, ImmGlobalIdx: A = index
//	ImmTypeIdx:  A = type index
//	ImmMemArg:   A = offset, B = align (log2)
//	ImmI32:      A = sign-extended value as uint64
//	ImmI64:      A = value as uint64
//	ImmF32:      A = 32 raw bits
//	ImmF64:      A = 64 raw bits
//	ImmBrTable:  Table = targets, A = default label
type Instr struct {
	Op    Opcode
	A, B  uint64
	Table []uint32
}
