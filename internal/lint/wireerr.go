package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// WireErrExhaustive audits the v2 wire protocol's error contract from
// both ends.
//
// The broker refuses requests with sentinel errors (ErrNotLeader with a
// leader + retry-after hint, ErrFencedEpoch, ErrOffsetGap, backpressure
// with a pacing hint, ...). They cross the wire as strings and the
// client-side decoder, remoteError in internal/stream, reconstructs
// them into errors.Is-able sentinels. That reconstruction list is the
// real contract: a sentinel the broker emits but remoteError does not
// decode reaches clients as an opaque remote failure, so every
// errors.Is against it is dead code and retry classifiers misroute it
// (a permanent refusal gets redialed like a transport error).
//
// Three checks:
//
//  1. the decoder is cross-checked against the analyzer's wire table
//     (the codes the broker actually emits): a table entry the decoder
//     misses reports at the decoder; a decoded sentinel missing from
//     the table reports so the table cannot go stale;
//  2. client-side code must not reference sentinels that never cross
//     the wire (dead errors.Is comparisons, retry classifiers listing
//     codes the decoder cannot produce);
//  3. client call sites must not discard the error result of a broker
//     round trip — dropping it silently loses ErrNotLeader redirects,
//     retry-after hints, and circuit state.
//
// The analyzer is whole-program: it reads the decoder out of the stream
// package and then audits every client package against it.
var WireErrExhaustive = &Analyzer{
	Name: "wireerrexhaustive",
	Doc:  "wire error sentinels decoded, matched, and handled consistently at client call sites",
	Run:  runWireErrExhaustive,
}

// wireCrossingErrors is the analyzer's wire table: the sentinels the
// broker emits over the v2 protocol, qualified as pkgbase.Name. Check 1
// keeps this list honest against the decoder.
var wireCrossingErrors = []string{
	"stream.ErrNotLeader",
	"stream.ErrFencedEpoch",
	"stream.ErrOffsetGap",
	"stream.ErrTopicExists",
	"stream.ErrUnknownTopic",
	"stream.ErrBadPartition",
	"stream.ErrBrokerClosed",
	"stream.ErrPartitionDown",
	"stream.ErrValueTooLarge",
	"stream.ErrEmptyTopicName",
	"flow.ErrBackpressure",
}

// clientLocalErrors are sentinels produced on the client side of the
// connection — legal to match anywhere, never decoded from the wire.
var clientLocalErrors = map[string]bool{
	"stream.ErrClientClosed": true,
	"flow.ErrCircuitOpen":    true,
	"flow.ErrBackpressure":   true, // also raised locally by pacers
}

// wireDecoderFunc is the client-side reconstruction point in the stream
// package.
const wireDecoderFunc = "remoteError"

// clientCallNames are the broker round-trip methods whose error result
// carries routing state (leader hints, retry-after) that must not be
// dropped.
var clientCallNames = map[string]bool{
	"Produce": true, "ProduceBatch": true, "Fetch": true, "FetchCommitted": true,
	"Poll": true, "PollInto": true, "PollEach": true, "Commit": true, "CommitOffsets": true,
	"Subscribe": true, "CreateTopic": true,
}

func runWireErrExhaustive(prog *Program) []Finding {
	var out []Finding
	streamPkg := pkgByBase(prog, "stream")
	if streamPkg == nil {
		return nil // nothing to audit without the protocol package
	}

	decodeSet, decoderPos := wireDecodeSet(streamPkg)
	if decoderPos == token.NoPos {
		// No remoteError decoder: this program does not carry the v2 wire
		// protocol (a fixture or a partial tree), so there is no contract
		// to audit. The self-test pins the real repo to having one.
		return nil
	}
	legal := map[string]bool{}
	for k := range decodeSet {
		legal[k] = true
	}
	for k := range clientLocalErrors {
		legal[k] = true
	}

	// Check 1a: every wire-table sentinel that exists must be decodable.
	inTable := map[string]bool{}
	for _, q := range wireCrossingErrors {
		inTable[q] = true
		if !sentinelDeclared(prog, q) {
			out = append(out, Finding{
				Pos:      prog.Fset.Position(decoderPos),
				Analyzer: "wireerrexhaustive",
				Message:  "wire table lists " + q + " but no such sentinel is declared; the table is stale",
			})
			continue
		}
		if !decodeSet[q] {
			out = append(out, Finding{
				Pos:      prog.Fset.Position(decoderPos),
				Analyzer: "wireerrexhaustive",
				Message: "broker emits " + q + " over the wire but " + wireDecoderFunc + " does not reconstruct it; " +
					"clients see an opaque remote failure and errors.Is against it never matches",
			})
		}
	}
	// Check 1b: the decoder must not reconstruct codes outside the table.
	for q := range decodeSet {
		if !inTable[q] {
			out = append(out, Finding{
				Pos:      prog.Fset.Position(decoderPos),
				Analyzer: "wireerrexhaustive",
				Message:  wireDecoderFunc + " reconstructs " + q + " which is not in the analyzer's wire table; update wireCrossingErrors",
			})
		}
	}

	// Checks 2 and 3 over client-side code.
	for _, pkg := range prog.Pkgs {
		base := pkgBase(pkg.Path)
		for _, file := range pkg.Files {
			fname := filepath.Base(prog.Fset.Position(file.Pos()).Filename)
			// The stream package itself is the server: its internal
			// sentinel uses are legitimate. Only its client-side retry
			// layer is held to the client rules.
			clientScope := base != "stream" || fname == "retry.go"
			if !clientScope {
				continue
			}
			checkDeadSentinelRefs(prog, pkg, file, base, legal, &out)
			checkDiscardedClientErrors(prog, pkg, file, base, &out)
		}
	}
	return out
}

// wireDecodeSet parses the decoder function and returns the qualified
// sentinel names it reconstructs, plus the decoder's position for
// report anchoring.
func wireDecodeSet(pkg *Package) (map[string]bool, token.Pos) {
	set := map[string]bool{}
	var pos token.Pos
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != wireDecoderFunc || fn.Body == nil {
				continue
			}
			pos = fn.Pos()
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if q := qualifiedSentinel(pkg, id); q != "" {
					set[q] = true
				}
				return true
			})
		}
	}
	return set, pos
}

// qualifiedSentinel resolves an identifier to "pkgbase.ErrName" when it
// names an exported error sentinel variable in the stream or flow
// packages — not a struct field of type error called Err
// (stream.BatchResult.Err): reading one matches no sentinel.
func qualifiedSentinel(pkg *Package, id *ast.Ident) string {
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.IsField() || !strings.HasPrefix(v.Name(), "Err") {
		return ""
	}
	base := pkgBase(v.Pkg().Path())
	if base != "stream" && base != "flow" {
		return ""
	}
	if !isErrorType(v.Type()) {
		return ""
	}
	return base + "." + v.Name()
}

// isErrorType reports whether t is the error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// pkgByBase finds the loaded package with the given final import-path
// element; nil if absent or ambiguous.
func pkgByBase(prog *Program, base string) *Package {
	var found *Package
	for _, pkg := range prog.Pkgs {
		if pkgBase(pkg.Path) == base {
			if found != nil {
				return nil
			}
			found = pkg
		}
	}
	return found
}

// sentinelDeclared reports whether the qualified sentinel exists in the
// loaded program.
func sentinelDeclared(prog *Program, qualified string) bool {
	dot := strings.IndexByte(qualified, '.')
	if dot < 0 {
		return false
	}
	pkg := pkgByBase(prog, qualified[:dot])
	if pkg == nil {
		return false
	}
	obj := pkg.Types.Scope().Lookup(qualified[dot+1:])
	v, ok := obj.(*types.Var)
	return ok && isErrorType(v.Type())
}

// checkDeadSentinelRefs flags client-side references to stream/flow
// sentinels that never cross the wire: errors.Is against them is dead
// code, and retry classifiers listing them misroute real refusals.
func checkDeadSentinelRefs(prog *Program, pkg *Package, file *ast.File, base string, legal map[string]bool, out *[]Finding) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		q := qualifiedSentinel(pkg, id)
		if q == "" || legal[q] {
			return true
		}
		// A package's own sentinel is its to return, not to match: flow
		// code returning flow-internal errors is not a wire concern.
		if strings.HasPrefix(q, base+".") && base != "stream" {
			return true
		}
		*out = append(*out, Finding{
			Pos:      prog.Fset.Position(id.Pos()),
			Analyzer: "wireerrexhaustive",
			Message: q + " never crosses the wire (" + wireDecoderFunc + " does not reconstruct it); " +
				"matching it client-side is dead code — decode it in " + wireDecoderFunc + " or stop referencing it here",
		})
		return true
	})
}

// checkDiscardedClientErrors flags broker round trips whose error
// result is dropped (bare call statement or a blank assignment in the
// error position).
func checkDiscardedClientErrors(prog *Program, pkg *Package, file *ast.File, base string, out *[]Finding) {
	if base == "stream" {
		return // the retry layer routes errors by construction
	}
	report := func(call *ast.CallExpr) {
		*out = append(*out, Finding{
			Pos:      prog.Fset.Position(call.Pos()),
			Analyzer: "wireerrexhaustive",
			Message: "discards the error from " + callName(call) + " — ErrNotLeader redirects, retry-after hints, " +
				"and circuit state are silently lost; handle the error or suppress with a reasoned //cad3:allow",
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok && isClientRoundTrip(pkg, call) {
				report(call)
			}
		case *ast.AssignStmt:
			if len(x.Rhs) != 1 {
				return true
			}
			call, ok := x.Rhs[0].(*ast.CallExpr)
			if !ok || !isClientRoundTrip(pkg, call) {
				return true
			}
			// The error is the last result; a blank in that slot drops it.
			if last, ok := x.Lhs[len(x.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
				report(call)
			}
		}
		return true
	})
}

// isClientRoundTrip reports whether the call is a broker client method
// (receiver type declared in the stream package) returning an error.
func isClientRoundTrip(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !clientCallNames[sel.Sel.Name] {
		return false
	}
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return false
	}
	name := typeName(t)
	dot := strings.LastIndexByte(name, '.')
	if dot < 0 || pkgBase(name[:dot]) != "stream" {
		return false
	}
	sig, ok := pkg.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}
