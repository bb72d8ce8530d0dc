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
// The service's SM index must be current. link returns the SMs it
// changed, sorted — those it patched a transition onto and those it
// pruned a call from — for the caller to re-index.
func link(svc *spec.Service) (patched, pruned int, changed []string) {
	// Pass 1: collect every referenced internal transition.
	type need struct {
		sm    string
		trans string
		state string // for setters
	}
	needs := map[string]need{}
	for _, sm := range svc.SMs {
		for _, tr := range sm.Transitions {
			walkStmts(tr.Body, func(s spec.Stmt) {
				call, ok := s.(*spec.CallStmt)
				if !ok || !strings.HasPrefix(call.Trans, "_") {
					return
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
			})
		}
	}
	// Pass 2: synthesize the internal transitions (deterministic order).
	keys := make([]string, 0, len(needs))
	for k := range needs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unresolvable := map[string]bool{}
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
		if strings.HasPrefix(n.trans, "_Set_") {
			sv := target.State(n.state)
			if sv == nil {
				// The model dropped the target state: the cross-write
				// cannot be linked. Prune the stub; alignment will
				// surface the missing effect.
				unresolvable[k] = true
				continue
			}
			target.Transitions = append(target.Transitions, &spec.Transition{
				Name:     n.trans,
				Kind:     spec.KModify,
				Internal: true,
				Doc:      fmt.Sprintf("linker-synthesized setter for %s.%s", n.sm, n.state),
				Params: []*spec.Param{
					{Name: "self", Type: spec.RefT(n.sm), Receiver: true},
					{Name: "v", Type: sv.Type, Optional: true},
				},
				Body: []spec.Stmt{&spec.WriteStmt{State: n.state, Value: &spec.Ident{Name: "v"}}},
			})
			patched++
			changed = append(changed, target.Name)
		} else if strings.HasPrefix(n.trans, "_Reclaim_") {
			target.Transitions = append(target.Transitions, &spec.Transition{
				Name:     n.trans,
				Kind:     spec.KDestroy,
				Internal: true,
				Doc:      fmt.Sprintf("linker-synthesized reclaim for %s", n.sm),
				Params: []*spec.Param{
					{Name: "self", Type: spec.RefT(n.sm), Receiver: true},
				},
			})
			patched++
			changed = append(changed, target.Name)
		}
	}
	// Pass 3: prune calls to unresolvable stubs.
	if len(unresolvable) > 0 {
		for _, sm := range svc.SMs {
			before := pruned
			for _, tr := range sm.Transitions {
				tr.Body = pruneCalls(tr.Body, unresolvable, &pruned)
			}
			if pruned > before {
				changed = append(changed, sm.Name)
			}
		}
	}
	slices.Sort(changed)
	return patched, pruned, slices.Compact(changed)
}

func pruneCalls(stmts []spec.Stmt, bad map[string]bool, pruned *int) []spec.Stmt {
	out := stmts[:0]
	for _, s := range stmts {
		switch st := s.(type) {
		case *spec.CallStmt:
			if bad[st.Trans] {
				*pruned++
				continue
			}
		case *spec.IfStmt:
			st.Then = pruneCalls(st.Then, bad, pruned)
			st.Else = pruneCalls(st.Else, bad, pruned)
		case *spec.ForEachStmt:
			st.Body = pruneCalls(st.Body, bad, pruned)
		}
		out = append(out, s)
	}
	return out
}

// walkStmts visits every statement in a body, recursing into blocks.
func walkStmts(stmts []spec.Stmt, f func(spec.Stmt)) {
	for _, s := range stmts {
		f(s)
		switch st := s.(type) {
		case *spec.IfStmt:
			walkStmts(st.Then, f)
			walkStmts(st.Else, f)
		case *spec.ForEachStmt:
			walkStmts(st.Body, f)
		}
	}
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
