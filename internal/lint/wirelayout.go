package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// WireLayout cross-checks the wire-format constants against the layout
// the codec actually encodes. The 200 B record frame, the 41 B warning,
// the 38 B summary prefix and the 50 B trace blob at offset 76 are all
// load-bearing: the MAC emulation sizes airtime from RecordWireSize, the
// trace context hides in the frame's padding at RecordTraceOffset, and a
// mixed fleet decodes by these offsets. The analyzer recomputes every
// encoder's and decoder's written/read extent from the AST (constant
// indexes into the buffer plus the PutUintNN/UintNN widths) and reports
// any drift between:
//
//   - recordBodySize / warningWireSize / summaryFixedSize and what
//     AppendRecord / AppendWarning / AppendSummary actually write;
//   - the same constants and what DecodeRecord / DecodeWarning /
//     DecodeSummary actually read;
//   - TraceBlobSize and PutTrace / GetTrace extents;
//   - the obsv mirror constants (RecordTraceOffset, RecordFrameSize,
//     WarningTraceOffset) and the core layout they mirror;
//   - StampPayload's per-stage offsets and PutTrace's field offsets;
//   - the trace blob fitting inside the record frame's padding;
//   - the stream wire protocol's fixed v2 layouts: helloBodySize vs
//     putHello/readHelloBody and batchOKResultSize vs putBatchOK (the
//     client reads a result field by field off its decoder).
//
// Packages are located structurally (a package that defines AppendRecord
// plus recordBodySize is "the codec"; one defining PutTrace plus
// TraceBlobSize is "the trace side"), so the golden testdata exercises
// the same code paths as the real tree.
//
// Justified by (CHANGES.md, "cad3-vet static analysis suite"): the fixed
// frame layouts. No defect found.
var WireLayout = &Analyzer{
	Name: "wirelayout",
	Doc:  "wire-format size/offset constants must match the encoded layout computed from the AST",
	Run:  runWireLayout,
}

func runWireLayout(prog *Program) []Finding {
	var out []Finding
	core := findPackageWith(prog, "AppendRecord", "recordBodySize")
	obsv := findPackageWith(prog, "PutTrace", "TraceBlobSize")

	var coreBody, coreFrame, coreWarn, coreSummary int64
	var haveCore bool
	if core != nil {
		w := &wireChecker{prog: prog, pkg: core, out: &out}
		coreBody = w.constVal("recordBodySize")
		coreFrame = w.constVal("RecordWireSize")
		coreWarn = w.constVal("warningWireSize")
		coreSummary = w.constVal("summaryFixedSize")
		haveCore = true

		w.checkExtent("AppendRecord", "recordBodySize", coreBody, writeExtent)
		w.checkExtent("DecodeRecord", "recordBodySize", coreBody, readExtent)
		w.checkExtent("AppendWarning", "warningWireSize", coreWarn, writeExtent)
		w.checkExtent("DecodeWarning", "warningWireSize", coreWarn, readExtent)
		w.checkExtent("AppendSummary", "summaryFixedSize", coreSummary, writeExtent)
		w.checkExtent("DecodeSummary", "summaryFixedSize", coreSummary, readExtent)

		if coreBody > coreFrame {
			w.reportConst("RecordWireSize", fmt.Sprintf(
				"record frame (%d B) is smaller than the fixed body (%d B)", coreFrame, coreBody))
		}
	}

	// The stream wire protocol's fixed v2 layouts: the hello body and the
	// per-record batch result. Located structurally like the codec —
	// whichever package defines putHello plus helloBodySize is the wire
	// layer — so the golden fixture exercises the same path.
	if wire := findPackageWith(prog, "putHello", "helloBodySize"); wire != nil {
		w := &wireChecker{prog: prog, pkg: wire, out: &out}
		hello := w.constVal("helloBodySize")
		w.checkExtent("putHello", "helloBodySize", hello, writeExtent)
		w.checkExtent("readHelloBody", "helloBodySize", hello, readExtent)
		batchOK := w.constVal("batchOKResultSize")
		w.checkExtent("putBatchOK", "batchOKResultSize", batchOK, writeExtent)
	}

	if obsv != nil {
		w := &wireChecker{prog: prog, pkg: obsv, out: &out}
		blob := w.constVal("TraceBlobSize")
		w.checkExtent("PutTrace", "TraceBlobSize", blob, writeExtent)
		w.checkExtent("GetTrace", "TraceBlobSize", blob, readExtent)
		w.checkStampOffsets(blob)

		if haveCore {
			checks := []struct {
				name   string
				expect int64
				what   string
			}{
				{"RecordTraceOffset", coreBody, "the codec's fixed record body size (the first padding byte)"},
				{"RecordFrameSize", coreFrame, "the codec's RecordWireSize"},
				{"WarningTraceOffset", coreWarn, "the codec's fixed warning size"},
			}
			for _, ck := range checks {
				got := w.constVal(ck.name)
				if got < 0 {
					continue // constant absent: nothing to cross-check
				}
				if got != ck.expect {
					w.reportConst(ck.name, fmt.Sprintf(
						"%s = %d drifted from %s (%d)", ck.name, got, ck.what, ck.expect))
				}
			}
			if off, size := w.constVal("RecordTraceOffset"), blob; off >= 0 && size >= 0 && off+size > coreFrame {
				w.reportConst("RecordTraceOffset", fmt.Sprintf(
					"trace blob (%d B at offset %d) overflows the %d B record frame", size, off, coreFrame))
			}
		}
	}
	return out
}

// findPackageWith locates the package defining both a function and a
// constant with the given names.
func findPackageWith(prog *Program, funcName, constName string) *Package {
	for _, pkg := range prog.Pkgs {
		if pkg.funcDecl(funcName) != nil && pkg.constDecl(constName) != nil {
			return pkg
		}
	}
	return nil
}

// constDecl finds the declaration position of a package-level constant.
func (p *Package) constDecl(name string) *ast.Ident {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.Name == name {
						return id
					}
				}
			}
		}
	}
	return nil
}

type wireChecker struct {
	prog *Program
	pkg  *Package
	out  *[]Finding
}

// constVal evaluates a package-level integer constant, or -1 if absent.
func (w *wireChecker) constVal(name string) int64 {
	obj := w.pkg.Types.Scope().Lookup(name)
	cn, ok := obj.(*types.Const)
	if !ok {
		return -1
	}
	v, ok := constant.Int64Val(constant.ToInt(cn.Val()))
	if !ok {
		return -1
	}
	return v
}

// reportConst emits a finding anchored at the named constant (falling
// back to the package's first file).
func (w *wireChecker) reportConst(name, msg string) {
	pos := w.pkg.Files[0].Pos()
	if id := w.pkg.constDecl(name); id != nil {
		pos = id.Pos()
	}
	*w.out = append(*w.out, Finding{
		Pos:      w.prog.Fset.Position(pos),
		Analyzer: "wirelayout",
		Message:  msg,
	})
}

type extentMode int

const (
	writeExtent extentMode = iota
	readExtent
)

// checkExtent recomputes fn's encoded extent from its body and compares
// it to the named constant.
func (w *wireChecker) checkExtent(fn, constName string, want int64, mode extentMode) {
	decl := w.pkg.funcDecl(fn)
	if decl == nil || decl.Body == nil || want < 0 {
		return
	}
	got := w.bodyExtent(decl.Body, mode)
	if got == 0 {
		return // no constant-indexed accesses found: nothing to compare
	}
	if got != want {
		*w.out = append(*w.out, Finding{
			Pos:      w.prog.Fset.Position(decl.Pos()),
			Analyzer: "wirelayout",
			Message: fmt.Sprintf("%s touches %d bytes of fixed layout but %s = %d — the constant and the codec drifted apart",
				fn, got, constName, want),
		})
	}
}

// putSizes maps the binary.ByteOrder method names to their widths.
var putSizes = map[string]int64{
	"PutUint16": 2, "PutUint32": 4, "PutUint64": 8,
	"Uint16": 2, "Uint32": 4, "Uint64": 8,
}

// bodyExtent computes the maximum constant offset+width the body touches
// on any byte slice: b[K] accesses count K+1, PutUintNN(b[K:], ...) and
// UintNN(b[K:]) count K+widthNN. Non-constant offsets (variable tails,
// loops) are ignored — the fixed layout is what the constants describe.
func (w *wireChecker) bodyExtent(body *ast.BlockStmt, mode extentMode) int64 {
	var max int64
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			size, ok := putSizes[sel.Sel.Name]
			if !ok || len(x.Args) == 0 {
				return true
			}
			isPut := sel.Sel.Name[0] == 'P'
			if (mode == writeExtent) != isPut {
				return true
			}
			if off, ok := w.sliceLow(x.Args[0]); ok && off+size > max {
				max = off + size
			}
		case *ast.AssignStmt:
			if mode != writeExtent {
				return true
			}
			for _, lhs := range x.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if k, ok := w.intConst(ix.Index); ok && k+1 > max {
						max = k + 1
					}
				}
			}
		case *ast.IndexExpr:
			if mode != readExtent {
				return true
			}
			if k, ok := w.intConst(x.Index); ok && k+1 > max {
				max = k + 1
			}
		}
		return true
	})
	return max
}

// sliceLow extracts the constant low bound of a b[K:] argument.
func (w *wireChecker) sliceLow(e ast.Expr) (int64, bool) {
	s, ok := e.(*ast.SliceExpr)
	if !ok {
		return 0, false
	}
	if s.Low == nil {
		return 0, true
	}
	return w.intConst(s.Low)
}

// intConst evaluates an expression to a constant int via the type info.
func (w *wireChecker) intConst(e ast.Expr) (int64, bool) {
	tv, ok := w.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

// checkStampOffsets verifies StampPayload's in-place stage offsets: each
// must be one of PutTrace's written field offsets, and the 8-byte stamp
// must fit inside the blob.
func (w *wireChecker) checkStampOffsets(blob int64) {
	put := w.pkg.funcDecl("PutTrace")
	stamp := w.pkg.funcDecl("StampPayload")
	if put == nil || stamp == nil || stamp.Body == nil || put.Body == nil {
		return
	}
	writes := map[int64]bool{}
	ast.Inspect(put.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || putSizes[sel.Sel.Name] != 8 || sel.Sel.Name[0] != 'P' || len(call.Args) == 0 {
			return true
		}
		if off, ok := w.sliceLow(call.Args[0]); ok {
			writes[off] = true
		}
		return true
	})
	if len(writes) == 0 {
		return
	}
	ast.Inspect(stamp.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name != "off" {
			return true
		}
		k, ok := w.intConst(as.Rhs[0])
		if !ok {
			return true
		}
		switch {
		case !writes[k]:
			*w.out = append(*w.out, Finding{
				Pos:      w.prog.Fset.Position(as.Pos()),
				Analyzer: "wirelayout",
				Message: fmt.Sprintf("StampPayload stamps offset %d, which PutTrace never writes — the stamp would corrupt a neighboring field",
					k),
			})
		case blob >= 0 && k+8 > blob:
			*w.out = append(*w.out, Finding{
				Pos:      w.prog.Fset.Position(as.Pos()),
				Analyzer: "wirelayout",
				Message:  fmt.Sprintf("StampPayload offset %d+8 overflows the %d-byte trace blob", k, blob),
			})
		}
		return true
	})
}
