package analysis

import (
	"go/ast"
	"go/types"
)

// tapeRecordTypes are the per-batch sample-record types the Monte Carlo
// tape compiler emits into its scratch before laying out a block.
var tapeRecordTypes = map[string]bool{"tapeStep": true, "tapeEdge": true}

// tapeOwnerPkg is the only package allowed to construct tape records: the
// compiler there lays each batch of records out as one column block.
const tapeOwnerPkg = "caribou/internal/montecarlo"

// TapeRecordAnalyzer flags composite literals of types named tapeStep or
// tapeEdge outside internal/montecarlo. Replay streams structure-of-arrays
// column blocks; the padded records exist only as the compiler's one-batch
// scratch. A tapeStep/tapeEdge literal sprouting in another package —
// whether by exporting the originals or by copying their definitions —
// reintroduces the stride-heavy layout the column blocks replaced, and
// bypasses the block layout that bakes the replay's plan-independent
// terms. The name-based match is deliberate: a copied definition is the
// same hazard as a reference to the original.
var TapeRecordAnalyzer = &Analyzer{
	Name: "taperecord",
	Doc:  "flag tapeStep/tapeEdge composite literals outside internal/montecarlo; tapes are compiled there",
	Run: func(p *Pass) {
		if pathIn(p.PkgPath, tapeOwnerPkg) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				t := p.Info.TypeOf(lit)
				if t == nil {
					return true
				}
				named, ok := t.(*types.Named)
				if !ok || !tapeRecordTypes[named.Obj().Name()] {
					return true
				}
				p.Reportf(lit.Pos(), "%s composite literal outside %s: tape records are the tape compiler's scratch; replay reads the column blocks laid out from them", named.Obj().Name(), tapeOwnerPkg)
				return true
			})
		}
	},
}
