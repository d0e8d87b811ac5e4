package core

import "wasmdb/internal/wasm"

// WAT renders the generated module in text form (for EXPLAIN and the
// examples/adhoc demo). It decodes Bin, function names included, since the
// builder's Module does not outlive the compile.
func (cq *CompiledQuery) WAT() string {
	m, err := wasm.DecodeNamed(cq.Bin)
	if err != nil {
		return ";; undecodable module: " + err.Error() + "\n"
	}
	return wasm.Print(m)
}

func wasmPrint(cq *CompiledQuery) string { return cq.WAT() }
