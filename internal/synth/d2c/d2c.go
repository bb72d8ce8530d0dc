// Package d2c is the direct-to-code baseline (§5 "Versus
// direct-to-code"): the same simulated model reads the same
// documentation but emits a flat handler table instead of SM
// specifications. Without the SM abstraction to constrain it, the
// generated code keeps the easy parts — a resource store, parameter
// plumbing, simple CIDR validity/conflict checks — and systematically
// loses the rest:
//
//   - state errors: context-dependent attributes (tenancy inheritance,
//     credit-specification defaulting) and branching parameter logic
//     collapse, so state variables like InstanceTenancy go missing;
//   - transition errors: lifecycle guards vanish, so StartInstances on
//     a running instance succeeds silently; dependency checks vanish,
//     so DeleteVpc succeeds with an attached gateway; range checks
//     vanish, so a /29 subnet is accepted.
//
// Mechanically, the baseline is produced by a "naive translation"
// transform over the faithful extraction: exactly the information the
// paper reports D2C losing is erased, deterministically. The result
// runs on its own flat dispatcher semantics (no containment hierarchy,
// since D2C has no notion of one — the transform strips parent
// declarations before the interpreter ever sees them).
package d2c

import (
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/wrangle"
	"lce/internal/interp"
	"lce/internal/spec"
	"lce/internal/synth"
)

// New generates the direct-to-code emulator for a rendered corpus.
func New(c docs.Corpus) (cloudapi.Backend, error) {
	brief, err := wrangle.Wrangle(c)
	if err != nil {
		return nil, err
	}
	return NewFromBrief(brief)
}

// NewFromBrief generates the baseline from a wrangled brief.
func NewFromBrief(brief *docs.ServiceDoc) (cloudapi.Backend, error) {
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		return nil, err
	}
	Naivify(svc)
	return interp.New(svc)
}

// Naivify applies the direct-to-code degradation to a faithful spec,
// in place.
func Naivify(svc *spec.Service) {
	for _, sm := range svc.SMs {
		// No containment hierarchy: flat handler tables have no notion
		// of parents, so the framework's dependency checks never fire.
		sm.Parent = ""
		for _, tr := range sm.Transitions {
			for _, p := range tr.Params {
				p.ParentLink = false
			}
			tr.Body = naivifyStmts(tr.Body)
		}
	}
	_ = svc.Index()
}

func naivifyStmts(stmts []spec.Stmt) []spec.Stmt {
	var out []spec.Stmt
	for _, s := range stmts {
		switch st := s.(type) {
		case *spec.AssertStmt:
			// Shallow validation: only surface-level CIDR checks
			// survive ("while it can check for simple CIDR conflicts,
			// it incorrectly allows the creation of a subnet with an
			// invalid prefix size").
			if !keepsAssert(st.Pred) {
				continue
			}
		case *spec.CallStmt:
			// Cross-resource effects are lost: the flat handlers have
			// no way to transition another resource's state.
			continue
		case *spec.IfStmt:
			// Guard-style "if the parameter is present, set it"
			// survives naive translation; genuine branching logic and
			// any condition over resource state collapse.
			if len(st.Else) > 0 || !paramOnly(st.Cond) {
				continue
			}
			st.Then = naivifyStmts(st.Then)
			if len(st.Then) == 0 {
				continue
			}
		case *spec.ForEachStmt:
			st.Body = naivifyStmts(st.Body)
			if len(st.Body) == 0 {
				continue
			}
		case *spec.WriteStmt:
			// Values derived from OTHER resources' state (field access
			// through references, store-wide queries) are beyond the
			// flat handlers; the current record's own attributes are
			// not.
			if !recordLocal(st.Value) {
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// keepsAssert reports whether naive code would plausibly implement the
// check: only syntactic input validation over CIDR strings.
func keepsAssert(pred spec.Expr) bool {
	keep := false
	walkExpr(pred, func(e spec.Expr) {
		if b, ok := e.(*spec.BuiltinExpr); ok {
			if b.Name == "cidrValid" || b.Name == "cidrOverlaps" {
				keep = true
			}
		}
	})
	return keep
}

// paramOnly reports whether the expression depends only on request
// parameters, literals and loop variables — naive code only keeps
// conditionals over its own inputs.
func paramOnly(e spec.Expr) bool {
	ok := true
	walkExpr(e, func(x spec.Expr) {
		switch v := x.(type) {
		case *spec.ReadExpr, *spec.FieldExpr:
			ok = false
		case *spec.BuiltinExpr:
			switch v.Name {
			case "matching", "instances", "children", "lookup", "filterEq", "describeAll", "describe", "first", "pluck", "describeEach":
				ok = false
			}
		}
	})
	return ok
}

// recordLocal reports whether the expression stays within the current
// record: parameters, literals, self, and the record's own attributes
// — but no reference-chasing into other resources and no store-wide
// queries. A flat handler can append to its own list attribute; it
// cannot consult another resource's state.
func recordLocal(e spec.Expr) bool {
	ok := true
	walkExpr(e, func(x spec.Expr) {
		switch v := x.(type) {
		case *spec.FieldExpr:
			ok = false
		case *spec.BuiltinExpr:
			switch v.Name {
			case "matching", "instances", "children", "lookup", "filterEq", "describeAll", "describe", "first", "pluck", "describeEach":
				ok = false
			}
		}
	})
	return ok
}

func walkExpr(e spec.Expr, f func(spec.Expr)) {
	f(e)
	switch x := e.(type) {
	case *spec.FieldExpr:
		walkExpr(x.X, f)
	case *spec.BuiltinExpr:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	case *spec.UnaryExpr:
		walkExpr(x.X, f)
	case *spec.BinaryExpr:
		walkExpr(x.X, f)
		walkExpr(x.Y, f)
	}
}
