// Package checks implements the paper's §4.2 consistency checks over
// generated specifications: completeness (every resource a spec
// depends on is present — a transitive closure over the resource
// dependency graph) and soundness against semantically invalid
// generations (describe transitions must not mutate state, transitions
// may only call into SMs reachable in their dependency hierarchy,
// creation must not destroy ancestors). These run after linking and
// before the spec is accepted as an executable specification. The same
// dependency graph backs the §4.4 complexity and anti-pattern measures
// (graph.go).
package checks

import (
	"fmt"
	"strings"

	"lce/internal/spec"
)

// Finding is one consistency violation.
type Finding struct {
	Kind   string // "completeness" | "soundness"
	SM     string
	Action string
	Msg    string
}

// Error renders the finding.
func (f Finding) Error() string {
	return fmt.Sprintf("checks: %s: sm %s %s: %s", f.Kind, f.SM, f.Action, f.Msg)
}

// Run executes all consistency checks.
func Run(svc *spec.Service) []Finding {
	var out []Finding
	out = append(out, Completeness(svc)...)
	out = append(out, Soundness(svc)...)
	return out
}

// Completeness verifies the transitive closure of the resource
// dependency graph is contained in the spec: if resource A depends on
// resource B (via ref types, parent edges, or calls), B must be
// present.
func Completeness(svc *spec.Service) []Finding {
	var out []Finding
	present := map[string]bool{}
	for _, sm := range svc.SMs {
		present[sm.Name] = true
	}
	for _, sm := range svc.SMs {
		for _, dep := range Dependencies(sm) {
			if !present[dep] {
				out = append(out, Finding{
					Kind: "completeness", SM: sm.Name,
					Msg: fmt.Sprintf("depends on SM %q, which is not in the specification", dep),
				})
			}
		}
	}
	return out
}

// Dependencies lists the SMs one SM references (parent, ref-typed
// states and params, call targets, matching/instances literals).
func Dependencies(sm *spec.SM) []string {
	seen := map[string]bool{}
	addType := func(t spec.Type) {
		if t.Kind == spec.TRef && t.Ref != sm.Name {
			seen[t.Ref] = true
		}
		if t.Kind == spec.TList && t.Elem != nil && t.Elem.Kind == spec.TRef && t.Elem.Ref != sm.Name {
			seen[t.Elem.Ref] = true
		}
	}
	if sm.Parent != "" {
		seen[sm.Parent] = true
	}
	for _, sv := range sm.States {
		addType(sv.Type)
	}
	for _, tr := range sm.Transitions {
		for _, p := range tr.Params {
			addType(p.Type)
		}
		walkExprs(tr.Body, func(e spec.Expr) {
			if b, ok := e.(*spec.BuiltinExpr); ok {
				switch b.Name {
				case "matching", "instances", "children", "lookup", "describeAll":
					if len(b.Args) > 0 {
						if lit, ok := b.Args[0].(*spec.Lit); ok && lit.Value.AsString() != sm.Name {
							seen[lit.Value.AsString()] = true
						}
					}
				}
			}
		})
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

// Soundness flags semantically invalid generations:
//   - a describe() transition that writes state or triggers calls;
//   - a transition that calls into an SM outside its dependency set
//     ("unreachable in its dependency graph hierarchy");
//   - a create transition that destroys resources (including, through
//     reclaim calls, its ancestors).
func Soundness(svc *spec.Service) []Finding {
	var out []Finding
	for _, sm := range svc.SMs {
		depSet := map[string]bool{sm.Name: true}
		for _, d := range Dependencies(sm) {
			depSet[d] = true
		}
		for _, tr := range sm.Transitions {
			if tr.Kind == spec.KDescribe {
				walkBody(tr.Body, func(s spec.Stmt) {
					switch s.(type) {
					case *spec.WriteStmt:
						out = append(out, Finding{Kind: "soundness", SM: sm.Name, Action: tr.Name,
							Msg: "describe transition modifies state"})
					case *spec.CallStmt:
						out = append(out, Finding{Kind: "soundness", SM: sm.Name, Action: tr.Name,
							Msg: "describe transition triggers a call"})
					}
				})
			}
			walkBody(tr.Body, func(s spec.Stmt) {
				call, ok := s.(*spec.CallStmt)
				if !ok {
					return
				}
				targetSM := callTarget(svc, call)
				if targetSM != "" && !depSet[targetSM] {
					out = append(out, Finding{Kind: "soundness", SM: sm.Name, Action: tr.Name,
						Msg: fmt.Sprintf("calls into SM %q, unreachable from its dependency hierarchy", targetSM)})
				}
				if tr.Kind == spec.KCreate && targetSM != "" && strings.HasPrefix(call.Trans, "_Reclaim_") {
					if isAncestor(svc, sm.Name, targetSM) {
						out = append(out, Finding{Kind: "soundness", SM: sm.Name, Action: tr.Name,
							Msg: fmt.Sprintf("creation destroys ancestor %q", targetSM)})
					}
				}
			})
		}
	}
	return out
}

// callTarget resolves the SM a call targets from the callee's
// registered owner (the action index), falling back to name mangling
// for internal transitions.
func callTarget(svc *spec.Service, call *spec.CallStmt) string {
	if sm, _, ok := svc.Action(call.Trans); ok {
		return sm.Name
	}
	if strings.HasPrefix(call.Trans, "_Reclaim_") {
		return strings.TrimPrefix(call.Trans, "_Reclaim_")
	}
	if strings.HasPrefix(call.Trans, "_Set_") {
		rest := strings.TrimPrefix(call.Trans, "_Set_")
		if i := strings.Index(rest, "_"); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// isAncestor reports whether candidate is on child's parent chain.
func isAncestor(svc *spec.Service, child, candidate string) bool {
	for sm := svc.SM(child); sm != nil && sm.Parent != ""; sm = svc.SM(sm.Parent) {
		if sm.Parent == candidate {
			return true
		}
	}
	return false
}

func walkBody(stmts []spec.Stmt, f func(spec.Stmt)) {
	for _, s := range stmts {
		f(s)
		switch st := s.(type) {
		case *spec.IfStmt:
			walkBody(st.Then, f)
			walkBody(st.Else, f)
		case *spec.ForEachStmt:
			walkBody(st.Body, f)
		}
	}
}

func walkExprs(stmts []spec.Stmt, f func(spec.Expr)) {
	var we func(e spec.Expr)
	we = func(e spec.Expr) {
		f(e)
		switch x := e.(type) {
		case *spec.FieldExpr:
			we(x.X)
		case *spec.BuiltinExpr:
			for _, a := range x.Args {
				we(a)
			}
		case *spec.UnaryExpr:
			we(x.X)
		case *spec.BinaryExpr:
			we(x.X)
			we(x.Y)
		}
	}
	walkBody(stmts, func(s spec.Stmt) {
		switch st := s.(type) {
		case *spec.WriteStmt:
			we(st.Value)
		case *spec.AssertStmt:
			we(st.Pred)
		case *spec.ReturnStmt:
			we(st.Value)
		case *spec.CallStmt:
			we(st.Target)
			for _, a := range st.Args {
				we(a)
			}
		case *spec.IfStmt:
			we(st.Cond)
		case *spec.ForEachStmt:
			we(st.Over)
		}
	})
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
