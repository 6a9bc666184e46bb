// Package wirecompat guards the invariants that keep the radio framing and
// the session wire protocol compatible with themselves:
//
//  1. Header-buffer extents. A header encoder that serializes into a local
//     fixed-size array (var hdr [headerSize]byte; binary.BigEndian.PutUint64
//     (hdr[20:], …); append(dst, hdr[:headerSize]…)) must write exactly as
//     many bytes as the largest named header-length constant it slices the
//     buffer by — bumping headerSize without serializing the new field, or
//     writing a field past the declared size, is a finding. An encoder that
//     slices the whole array (hdr[:]) names no constant and is not checked.
//
//  2. Encode/decode symmetry. When a package contains one switch over a wire
//     enum whose cases append fixed-width bodies to a []byte (the encoder)
//     and one switch whose cases assert a required body length through a
//     local bounds helper (the decoder's need(n) convention), the per-kind
//     fixed widths must agree — adding a field to a message's encoder
//     without updating the decoder's length check is a finding.
//
//  3. Kind-switch exhaustiveness. Every switch over the session wire Kind
//     enum (type Kind in a package whose leaf name is "session") must carry
//     a default clause or cover all declared kinds, so adding a tenth wire
//     kind surfaces every dispatch site the new message must be threaded
//     through.
//
// Intentional violations annotate //mimonet:wirecompat-ok.
package wirecompat

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the wirecompat analyzer.
var Analyzer = &framework.Analyzer{
	Name: "wirecompat",
	Doc: "check header-length constants against bytes actually written, encode/decode body-width symmetry, " +
		"and exhaustive handling of session wire kinds",
	Run: run,
}

const exemptTag = "wirecompat-ok"

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHeaderBuffers(pass, fd)
		}
	}
	checkEncodeDecodeSymmetry(pass)
	checkKindSwitches(pass)
	return nil
}

// putWidths maps the binary.BigEndian writers to the bytes they store.
var putWidths = map[string]int{
	"PutUint16": 2,
	"PutUint32": 4,
	"PutUint64": 8,
}

// bufferUse accumulates what one function does with one local array.
type bufferUse struct {
	arrayLen int64
	// maxWrite is the highest byte offset+width stored into the array via
	// BigEndian.PutUintN or single-byte index assignment.
	maxWrite int64
	wrote    bool
	// maxBound / boundName track the largest named constant the array is
	// sliced by (hdr[:headerSize]).
	maxBound  int64
	boundName string
	pos       ast.Node
}

// checkHeaderBuffers applies the extent check to every local fixed-size
// byte array that is both written through binary.BigEndian and sliced by a
// named length constant — the structural shape of a wire-header encoder.
func checkHeaderBuffers(pass *framework.Pass, fd *ast.FuncDecl) {
	uses := make(map[types.Object]*bufferUse)
	use := func(id *ast.Ident) *bufferUse {
		obj := framework.ObjOf(pass.Info, id)
		v, ok := obj.(*types.Var)
		if !ok {
			return nil
		}
		arr, ok := v.Type().Underlying().(*types.Array)
		if !ok {
			return nil
		}
		basic, ok := arr.Elem().Underlying().(*types.Basic)
		if !ok || basic.Kind() != types.Uint8 {
			return nil
		}
		u, ok := uses[obj]
		if !ok {
			u = &bufferUse{arrayLen: arr.Len(), pos: id}
			uses[obj] = u
		}
		return u
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// binary.BigEndian.PutUintN(arr[off:], v) → write [off, off+N).
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			width, ok := putWidths[sel.Sel.Name]
			if !ok || len(n.Args) != 2 {
				return true
			}
			sl, ok := ast.Unparen(n.Args[0]).(*ast.SliceExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sl.X).(*ast.Ident)
			if !ok {
				return true
			}
			u := use(id)
			if u == nil {
				return true
			}
			off, ok := constIntValue(pass.Info, sl.Low)
			if !ok {
				return true
			}
			u.wrote = true
			if end := off + int64(width); end > u.maxWrite {
				u.maxWrite = end
			}
		case *ast.AssignStmt:
			// arr[i] = b → write [i, i+1).
			for _, lhs := range n.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(ix.X).(*ast.Ident)
				if !ok {
					continue
				}
				u := use(id)
				if u == nil {
					continue
				}
				i, ok := constIntValue(pass.Info, ix.Index)
				if !ok {
					continue
				}
				u.wrote = true
				if i+1 > u.maxWrite {
					u.maxWrite = i + 1
				}
			}
		case *ast.SliceExpr:
			// arr[:headerSize] — a named length constant as the high bound.
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || n.High == nil {
				return true
			}
			c, ok := framework.ObjOf(pass.Info, n.High).(*types.Const)
			if !ok {
				return true
			}
			u := use(id)
			if u == nil {
				return true
			}
			bound, ok := constant.Int64Val(c.Val())
			if !ok {
				return true
			}
			if bound > u.maxBound {
				u.maxBound = bound
				u.boundName = c.Name()
			}
		}
		return true
	})

	for _, u := range uses {
		if !u.wrote || u.boundName == "" {
			continue
		}
		if pass.Exempt(u.pos.Pos(), exemptTag) {
			continue
		}
		switch {
		case u.maxWrite > u.arrayLen:
			pass.Reportf(u.pos.Pos(),
				"header encoder writes %d bytes into a [%d]byte buffer; grow the array and its length constant together",
				u.maxWrite, u.arrayLen)
		case u.maxWrite != u.maxBound:
			pass.Reportf(u.pos.Pos(),
				"header encoder writes %d bytes but header-length constant %s = %d; the constant must equal the bytes actually written",
				u.maxWrite, u.boundName, u.maxBound)
		}
	}
}

// constIntValue evaluates e (nil → 0, the elided slice low bound) as a
// compile-time int.
func constIntValue(info *types.Info, e ast.Expr) (int64, bool) {
	if e == nil {
		return 0, true
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// caseWidth is the fixed body width one enum member's case encodes or
// requires; variable-width cases (spread appends, data chunks) are skipped.
type caseWidth struct {
	width    int64
	variable bool
	pos      ast.Node
}

// enumSwitchProfile classifies one switch over an enum type.
type enumSwitchProfile struct {
	sw      *ast.SwitchStmt
	enum    *types.Named
	members []*types.Const
	// encode/decode widths per member constant value (ExactString key).
	widths     map[string]*caseWidth
	encodeLike int // cases containing []byte appends or width-closure calls
	decodeLike int // cases containing bounds-helper calls
}

// checkEncodeDecodeSymmetry pairs the package's encoder switch with its
// decoder switch per enum type and compares per-member fixed widths.
func checkEncodeDecodeSymmetry(pass *framework.Pass) {
	encoders := make(map[*types.Named][]*enumSwitchProfile)
	decoders := make(map[*types.Named][]*enumSwitchProfile)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			closures := appendClosureWidths(pass.Info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				enum := framework.EnumTagType(pass.Info, sw)
				if enum == nil {
					return true
				}
				members := framework.EnumMembers(enum)
				if len(members) < 2 {
					return true
				}
				p := profileSwitch(pass.Info, sw, enum, members, closures)
				if p.encodeLike >= 2 && p.encodeLike > p.decodeLike {
					encoders[enum] = append(encoders[enum], p)
				} else if p.decodeLike >= 2 {
					decoders[enum] = append(decoders[enum], p)
				}
				return true
			})
		}
	}

	for enum, encs := range encoders {
		decs := decoders[enum]
		// Only an unambiguous pairing is comparable.
		if len(encs) != 1 || len(decs) != 1 {
			continue
		}
		enc, dec := encs[0], decs[0]
		for _, m := range members(enum) {
			key := m.Val().ExactString()
			ew, dw := enc.widths[key], dec.widths[key]
			if ew == nil || dw == nil || ew.variable || dw.variable {
				continue
			}
			if ew.width == dw.width {
				continue
			}
			if pass.Exempt(dw.pos.Pos(), exemptTag) || pass.Exempt(ew.pos.Pos(), exemptTag) {
				continue
			}
			pass.Reportf(dw.pos.Pos(),
				"wire kind %s: encoder writes a %d-byte body but decoder requires %d; keep AppendMessage and DecodeMessage symmetric",
				m.Name(), ew.width, dw.width)
		}
	}
}

func members(enum *types.Named) []*types.Const { return framework.EnumMembers(enum) }

// appendClosureWidths finds local closures of the scratch-append shape —
//
//	u64 := func(v uint64) { …; dst = append(dst, scratch[:8]...) }
//
// — and maps each closure variable to the fixed byte width it appends.
func appendClosureWidths(info *types.Info, fd *ast.FuncDecl) map[types.Object]int64 {
	widths := make(map[types.Object]int64)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		lit, ok := assign.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := framework.ObjOf(info, id)
		if obj == nil {
			return true
		}
		var width int64 = -1
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isByteAppend(info, call) || call.Ellipsis == 0 {
				return true
			}
			sl, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.SliceExpr)
			if !ok {
				return true
			}
			low, okLow := constIntValue(info, sl.Low)
			high, okHigh := constIntValue(info, sl.High)
			if okLow && okHigh && sl.High != nil {
				width = high - low
			}
			return true
		})
		if width > 0 {
			widths[obj] = width
		}
		return true
	})
	return widths
}

// isByteAppend reports whether call is the append builtin applied to a
// []byte.
func isByteAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}

// profileSwitch computes per-member encode widths (bytes appended) and
// decode widths (bounds-helper requirements) for one enum switch.
func profileSwitch(info *types.Info, sw *ast.SwitchStmt, enum *types.Named, enumMembers []*types.Const, closures map[types.Object]int64) *enumSwitchProfile {
	p := &enumSwitchProfile{sw: sw, enum: enum, members: enumMembers, widths: make(map[string]*caseWidth)}
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok || clause.List == nil {
			continue
		}
		var encWidth, decWidth int64
		variable := false
		sawEncode, sawDecode := false, false
		for _, s := range clause.Body {
			ast.Inspect(s, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				// Width closure call: u64(x) appends its fixed width.
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if w, ok := closures[framework.ObjOf(info, id)]; ok {
						encWidth += w
						sawEncode = true
						return true
					}
					// Bounds helper: a call to a local func(int)-shaped
					// variable with one constant argument is the decoder's
					// need(n) convention.
					if w, ok := boundsHelperWidth(info, call, id); ok {
						decWidth = w
						sawDecode = true
						return true
					}
				}
				if isByteAppend(info, call) {
					sawEncode = true
					if call.Ellipsis != 0 {
						variable = true // spread append: variable-width body
					} else {
						encWidth += int64(len(call.Args) - 1)
					}
				}
				return true
			})
		}
		if len(clause.Body) == 0 {
			// A genuinely empty case (KindFinAck) is a fixed zero-width
			// body on both sides. Cases whose statements match neither
			// pattern contribute nothing — dispatch switches that neither
			// encode nor bounds-check must not sway the classification.
			sawEncode, sawDecode = true, true
		}
		if sawEncode {
			p.encodeLike++
		}
		if sawDecode {
			p.decodeLike++
		}
		if !sawEncode && !sawDecode {
			continue
		}
		width := encWidth
		if sawDecode && !sawEncode {
			width = decWidth
		}
		for _, e := range clause.List {
			tv, ok := info.Types[e]
			if !ok || tv.Value == nil {
				continue
			}
			p.widths[tv.Value.ExactString()] = &caseWidth{width: width, variable: variable, pos: clause}
		}
	}
	return p
}

// boundsHelperWidth recognizes need(13): a call through a local variable of
// function type taking one int-ish parameter, with a constant argument.
func boundsHelperWidth(info *types.Info, call *ast.CallExpr, id *ast.Ident) (int64, bool) {
	v, ok := framework.ObjOf(info, id).(*types.Var)
	if !ok || len(call.Args) != 1 {
		return 0, false
	}
	sig, ok := v.Type().Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return 0, false
	}
	basic, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return 0, false
	}
	return constIntValue(info, call.Args[0])
}

// checkKindSwitches enforces exhaustiveness over the tracked wire and
// state enums (see isWireEnum) at every switch site, in whatever package
// the switch appears.
func checkKindSwitches(pass *framework.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			enum := framework.EnumTagType(pass.Info, sw)
			if enum == nil || !isWireEnum(enum) {
				return true
			}
			enumMembers := framework.EnumMembers(enum)
			if len(enumMembers) < 2 {
				return true
			}
			cov := framework.CoverEnumSwitch(pass.Info, sw, enumMembers)
			if cov.Exhaustive() || pass.Exempt(sw.Pos(), exemptTag) {
				return true
			}
			names := make([]string, 0, len(cov.Missing))
			for _, m := range cov.Missing {
				names = append(names, m.Name())
			}
			pass.Reportf(sw.Pos(),
				"switch over %s.%s handles %d of %d %s and has no default; missing %s",
				enum.Obj().Pkg().Name(), enum.Obj().Name(),
				len(enumMembers)-len(cov.Missing), len(enumMembers), wireEnumNoun(enum),
				strings.Join(names, ", "))
			return true
		})
	}
}

// isWireEnum matches the enums whose switch sites must stay exhaustive:
// the wire-kind discriminators of the session and AP MAC codecs (a type
// named Kind in a package whose leaf name is "session" or "apmac"), and
// the multi-user scheduler's per-station state machine
// (mumimo.StationState). Adding a member to any of them forces every
// subset switch to be revisited or explicitly exempted.
func isWireEnum(enum *types.Named) bool {
	obj := enum.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	switch obj.Name() {
	case "Kind":
		return framework.PathApplies(path, "session") || framework.PathApplies(path, "apmac")
	case "StationState":
		return framework.PathApplies(path, "mumimo")
	}
	return false
}

// wireEnumNoun names the members in findings so the message reads
// naturally for both codec kinds and scheduler states.
func wireEnumNoun(enum *types.Named) string {
	if enum.Obj().Name() == "StationState" {
		return "scheduler states"
	}
	return "wire kinds"
}
