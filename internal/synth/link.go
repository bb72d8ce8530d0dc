package synth

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"lce/internal/spec"
)

// link performs the specification-linking pass (§4.2): the
// incrementally generated SM modules are spliced into one service,
// dangling stubs to internal setter/reclaim transitions are patched by
// synthesizing those transitions on their target SMs, and unresolvable
// stubs (e.g. a cross-write into a state the model failed to capture)
// are pruned so the linked spec is Strict-valid. Pruned stubs are the
// kind of residue the alignment phase later detects as divergence.
//
// The service's SM index must be current. Each SM link patches or
// prunes is replaced in svc.SMs by a copy; the SM itself is left as it
// was, so re-indexing finds the change by pointer.
func link(svc *spec.Service) (patched, pruned int) {
	// Pass 1: collect every referenced internal transition.
	type need struct {
		sm    string
		trans string
		state string // for setters
	}
	needs := map[string]need{}
	for _, sm := range svc.SMs {
		editSM(sm, func(s spec.Stmt) spec.Stmt {
			call, ok := s.(*spec.CallStmt)
			if !ok || !strings.HasPrefix(call.Trans, "_") {
				return s
			}
			n := need{trans: call.Trans}
			if strings.HasPrefix(call.Trans, "_Set_") {
				rest := strings.TrimPrefix(call.Trans, "_Set_")
				if i := strings.Index(rest, "_"); i > 0 {
					n.sm, n.state = rest[:i], rest[i+1:]
				}
			} else if strings.HasPrefix(call.Trans, "_Reclaim_") {
				n.sm = strings.TrimPrefix(call.Trans, "_Reclaim_")
			}
			needs[call.Trans] = n
			return s
		})
	}
	// Pass 2: synthesize the internal transitions (deterministic order),
	// collected per target SM.
	keys := make([]string, 0, len(needs))
	for k := range needs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unresolvable := map[string]bool{}
	added := map[string][]*spec.Transition{}
	for _, k := range keys {
		n := needs[k]
		target := svc.SM(n.sm)
		if target == nil {
			unresolvable[k] = true
			continue
		}
		if target.Transition(n.trans) != nil {
			continue
		}
		// n.sm resolved, so n.trans is a setter or a reclaim.
		tr := &spec.Transition{
			Name:     n.trans,
			Kind:     spec.KDestroy,
			Internal: true,
			Doc:      fmt.Sprintf("linker-synthesized reclaim for %s", n.sm),
			Params:   []*spec.Param{{Name: "self", Type: spec.RefT(n.sm), Receiver: true}},
		}
		if strings.HasPrefix(n.trans, "_Set_") {
			sv := target.State(n.state)
			if sv == nil {
				// The model dropped the target state: the cross-write
				// cannot be linked. Prune the stub; alignment will
				// surface the missing effect.
				unresolvable[k] = true
				continue
			}
			tr.Kind = spec.KModify
			tr.Doc = fmt.Sprintf("linker-synthesized setter for %s.%s", n.sm, n.state)
			tr.Params = append(tr.Params, &spec.Param{Name: "v", Type: sv.Type, Optional: true})
			tr.Body = []spec.Stmt{&spec.WriteStmt{State: n.state, Value: &spec.Ident{Name: "v"}}}
		}
		added[n.sm] = append(added[n.sm], tr)
		patched++
	}
	// Pass 3: prune calls to unresolvable stubs, and put in a copy of
	// each SM that lost a call or gained a transition.
	prune := func(s spec.Stmt) spec.Stmt {
		if call, ok := s.(*spec.CallStmt); ok && unresolvable[call.Trans] {
			pruned++
			return nil
		}
		return s
	}
	for i, sm := range svc.SMs {
		sm = editSM(sm, prune)
		if extra := added[sm.Name]; len(extra) > 0 {
			cp := *sm
			cp.Transitions = append(slices.Clip(sm.Transitions), extra...)
			sm = &cp
		}
		svc.SMs[i] = sm
	}
	return patched, pruned
}

// editSM runs edit over sm's transition bodies (see editStmts) and
// returns a copy holding the changed ones, or sm when none changed.
func editSM(sm *spec.SM, edit func(spec.Stmt) spec.Stmt) *spec.SM {
	var trs []*spec.Transition
	for i, tr := range sm.Transitions {
		if body, changed := editStmts(tr.Body, edit); changed {
			if trs == nil {
				trs = slices.Clone(sm.Transitions)
			}
			cp := *tr
			cp.Body = body
			trs[i] = &cp
		}
	}
	if trs == nil {
		return sm
	}
	cp := *sm
	cp.Transitions = trs
	return &cp
}

// editStmts applies edit to every statement of stmts, recursing into
// blocks in order: edit returns what takes the statement's place — the
// statement itself, a replacement, or nil to drop it. A block in which
// something changed is copied, along with the statement holding it;
// nothing is written to in place, and an edit that keeps every
// statement only visits them. It reports whether anything changed.
func editStmts(stmts []spec.Stmt, edit func(spec.Stmt) spec.Stmt) ([]spec.Stmt, bool) {
	out, changed := stmts, false
	for i, s := range stmts {
		e := edit(s)
		switch st := e.(type) {
		case *spec.IfStmt:
			then, c1 := editStmts(st.Then, edit)
			els, c2 := editStmts(st.Else, edit)
			if c1 || c2 {
				cp := *st
				cp.Then, cp.Else = then, els
				e = &cp
			}
		case *spec.ForEachStmt:
			if body, c := editStmts(st.Body, edit); c {
				cp := *st
				cp.Body = body
				e = &cp
			}
		}
		if e != s && !changed {
			out, changed = slices.Clone(stmts[:i]), true
		}
		if changed && e != nil {
			out = append(out, e)
		}
	}
	return out, changed
}

// dependencyOrder topologically sorts resource names by their ref
// edges (§4.2's "symbolically extract a resource-level dependency
// graph"), so extraction visits dependencies before dependents.
// Cycles (mutual references are common: Address ↔ NatGateway) are
// broken by documentation order.
func dependencyOrder(names []string, deps map[string][]string) []string {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var out []string
	var visit func(string)
	visit = func(n string) {
		if color[n] != white {
			return
		}
		color[n] = grey
		for _, d := range deps[n] {
			if color[d] == white {
				visit(d)
			}
		}
		color[n] = black
		out = append(out, n)
	}
	for _, n := range names {
		visit(n)
	}
	return out
}
