package synth

import (
	"fmt"

	"lce/internal/docs"
	"lce/internal/spec"
)

// extractor compiles one resource brief into an SM, applying the
// hallucination model along the way. It plays the "LLM articulating
// its knowledge in the SM abstraction" role from §1.
type extractor struct {
	doc     *docs.ServiceDoc
	noise   Noise
	rng     source
	service string
	// dropped records the state variables the model failed to capture,
	// per resource — writes into dropped states must be dropped too or
	// the spec would not even be well-formed.
	dropped map[string]map[string]bool
}

// extractSM compiles one resource. The returned SM is Partial-valid:
// refs to other SMs are left dangling for the linking pass.
func (x *extractor) extractSM(rd *docs.ResourceDoc, attempt int) *spec.SM {
	r := x.noise.rng(rd.Name, attempt)
	x.rng = r
	sm := &spec.SM{
		Name:       rd.Name,
		Doc:        rd.Overview,
		IDPrefix:   rd.IDPrefix,
		NotFound:   rd.NotFound,
		Dependency: rd.Dependency,
	}
	if rd.Parent != "" && !decide(r, x.noise.DropParent) {
		sm.Parent = rd.Parent
	}
	drop := map[string]bool{}
	for _, sv := range rd.States {
		if decide(r, x.noise.DropState) {
			drop[sv.Name] = true
			continue
		}
		sm.States = append(sm.States, &spec.StateVar{Name: sv.Name, Type: sv.Type, Doc: sv.Desc})
	}
	if x.dropped == nil {
		x.dropped = map[string]map[string]bool{}
	}
	x.dropped[rd.Name] = drop
	for i := range rd.APIs {
		sm.Transitions = append(sm.Transitions, x.extractTransition(rd, &rd.APIs[i], drop, sm.Parent != ""))
	}
	return sm
}

func (x *extractor) extractTransition(rd *docs.ResourceDoc, a *docs.APIDoc, drop map[string]bool, parentKept bool) *spec.Transition {
	tr := &spec.Transition{Name: a.Name, Kind: a.Kind, Doc: a.Desc}
	for _, pd := range a.Params {
		tr.Params = append(tr.Params, &spec.Param{
			Name:     pd.Name,
			Type:     pd.Type,
			Optional: pd.Optional,
			Default:  pd.Default,
			Receiver: pd.Receiver,
			// A parent-link marker is only legal while the containment
			// declaration was captured; when the model dropped the
			// parent, the parameter degrades to a plain reference.
			ParentLink: pd.ParentLink && parentKept,
		})
	}
	env := newSymtab(rd, a)
	tr.Body = x.compileClauses(a.Clauses, env, drop)
	for _, rt := range a.Returns {
		val, err := spec.ParseExprString(rt.Value)
		if err != nil {
			continue // Validate() guarantees this cannot happen for authored corpora
		}
		tr.Body = append(tr.Body, &spec.ReturnStmt{Name: rt.Name, Value: val})
	}
	return tr
}

func (x *extractor) compileClauses(cs []docs.Clause, env *symtab, drop map[string]bool) []spec.Stmt {
	var out []spec.Stmt
	for _, c := range cs {
		if s := x.compileClause(c, env, drop); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (x *extractor) compileClause(c docs.Clause, env *symtab, drop map[string]bool) spec.Stmt {
	switch c.Kind {
	case docs.KCheck:
		if decide(x.rng, x.noise.DropCheck) {
			return nil
		}
		pred, err := spec.ParseExprString(c.Pred)
		if err != nil {
			return nil
		}
		code := c.Error
		if decide(x.rng, x.noise.WrongCode) {
			code = genericCode(x.service)
		}
		return &spec.AssertStmt{Pred: pred, Code: code, Message: c.Msg}
	case docs.KWrite:
		if drop[c.State] {
			return nil
		}
		val, err := spec.ParseExprString(c.Value)
		if err != nil {
			return nil
		}
		return &spec.WriteStmt{State: c.State, Value: val}
	case docs.KXWrite:
		if decide(x.rng, x.noise.DropLink) {
			return nil
		}
		target, err := spec.ParseExprString(c.Target)
		if err != nil {
			return nil
		}
		targetSM := env.refTypeOf(target)
		if targetSM == "" {
			return nil
		}
		val, err := spec.ParseExprString(c.Value)
		if err != nil {
			return nil
		}
		return &spec.CallStmt{Target: target, Trans: setterName(targetSM, c.State), Args: []spec.Expr{val}}
	case docs.KXDestroy:
		if decide(x.rng, x.noise.DropLink) {
			return nil
		}
		target, err := spec.ParseExprString(c.Target)
		if err != nil {
			return nil
		}
		targetSM := env.refTypeOf(target)
		if targetSM == "" {
			return nil
		}
		return &spec.CallStmt{Target: target, Trans: reclaimName(targetSM)}
	case docs.KCall:
		if decide(x.rng, x.noise.DropLink) {
			return nil
		}
		target, err := spec.ParseExprString(c.Target)
		if err != nil {
			return nil
		}
		var args []spec.Expr
		for _, a := range c.Args {
			ax, err := spec.ParseExprString(a)
			if err != nil {
				return nil
			}
			args = append(args, ax)
		}
		return &spec.CallStmt{Target: target, Trans: c.Trans, Args: args}
	case docs.KIf:
		cond, err := spec.ParseExprString(c.Cond)
		if err != nil {
			return nil
		}
		return &spec.IfStmt{
			Cond: cond,
			Then: x.compileClauses(c.Then, env, drop),
			Else: x.compileClauses(c.Else, env, drop),
		}
	case docs.KForEach:
		over, err := spec.ParseExprString(c.Over)
		if err != nil {
			return nil
		}
		inner := env.withVar(c.Var, env.refTypeOf(over))
		return &spec.ForEachStmt{Var: c.Var, Over: over, Body: x.compileClauses(c.Then, inner, drop)}
	case docs.KRetC:
		val, err := spec.ParseExprString(c.Value)
		if err != nil {
			return nil
		}
		return &spec.ReturnStmt{Name: c.State, Value: val}
	default:
		return nil
	}
}

// setterName and reclaimName mangle the internal transitions the
// linking pass synthesizes for cross-resource effects.
func setterName(sm, state string) string { return fmt.Sprintf("_Set_%s_%s", sm, state) }
func reclaimName(sm string) string       { return fmt.Sprintf("_Reclaim_%s", sm) }

// symtab is the extractor's lightweight type environment: enough
// inference to resolve which SM a cross-resource effect targets.
type symtab struct {
	rd   *docs.ResourceDoc
	api  *docs.APIDoc
	vars map[string]string // foreach var -> SM name ("" when unknown)
}

func newSymtab(rd *docs.ResourceDoc, a *docs.APIDoc) *symtab {
	return &symtab{rd: rd, api: a, vars: map[string]string{}}
}

func (s *symtab) withVar(name, smName string) *symtab {
	out := &symtab{rd: s.rd, api: s.api, vars: make(map[string]string, len(s.vars)+1)}
	for k, v := range s.vars {
		out.vars[k] = v
	}
	out.vars[name] = smName
	return out
}

// refTypeOf resolves the SM an expression refers to, covering the
// shapes behaviour clauses actually use: parameters, state reads,
// foreach variables, self, and first/filterEq/matching chains.
func (s *symtab) refTypeOf(e spec.Expr) string {
	switch x := e.(type) {
	case *spec.Ident:
		if smName, ok := s.vars[x.Name]; ok {
			return smName
		}
		for _, pd := range s.api.Params {
			if pd.Name == x.Name && pd.Type.Kind == spec.TRef {
				return pd.Type.Ref
			}
		}
		for _, sv := range s.rd.States {
			if sv.Name == x.Name && sv.Type.Kind == spec.TRef {
				return sv.Type.Ref
			}
		}
		return ""
	case *spec.SelfExpr:
		return s.rd.Name
	case *spec.ReadExpr:
		for _, sv := range s.rd.States {
			if sv.Name == x.State && sv.Type.Kind == spec.TRef {
				return sv.Type.Ref
			}
		}
		return ""
	case *spec.BuiltinExpr:
		switch x.Name {
		case "matching", "lookup", "instances", "children":
			if len(x.Args) > 0 {
				if lit, ok := x.Args[0].(*spec.Lit); ok {
					return lit.Value.AsString()
				}
			}
		case "first", "filterEq":
			if len(x.Args) > 0 {
				return s.refTypeOf(x.Args[0])
			}
		}
		return ""
	default:
		return ""
	}
}
