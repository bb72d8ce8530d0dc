package checks

// The paper's §4.4 "new opportunities": quantifying cloud complexity
// from the extracted specification graph (Fig. 4's CDF of SM
// complexity, node/edge-density metrics) and documentation-engineering
// signals (anti-pattern detection over SM structure).

import (
	"fmt"
	"sort"
	"strings"

	"lce/internal/spec"
)

// SMComplexity is one SM's complexity sample: the paper's measure is
// the number of state variables plus transitions.
type SMComplexity struct {
	Service     string
	SM          string
	States      int
	Transitions int
}

// Total returns states + transitions.
func (c SMComplexity) Total() int { return c.States + c.Transitions }

// Complexities samples every SM of a service (internal transitions are
// excluded — they are framework artifacts, not cloud structure).
func Complexities(svc *spec.Service) []SMComplexity {
	out := make([]SMComplexity, 0, len(svc.SMs))
	for _, sm := range svc.SMs {
		public := 0
		for _, tr := range sm.Transitions {
			if !tr.Internal {
				public++
			}
		}
		out = append(out, SMComplexity{
			Service:     svc.Name,
			SM:          sm.Name,
			States:      len(sm.States),
			Transitions: public,
		})
	}
	return out
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	X float64 // complexity
	Y float64 // fraction of SMs with complexity <= X
}

// CDF computes the cumulative distribution of SM complexity for one
// service — one series of Fig. 4.
func CDF(svc *spec.Service) []CDFPoint {
	cs := Complexities(svc)
	vals := make([]int, len(cs))
	for i, c := range cs {
		vals[i] = c.Total()
	}
	sort.Ints(vals)
	var out []CDFPoint
	n := float64(len(vals))
	for i, v := range vals {
		if i+1 < len(vals) && vals[i+1] == v {
			continue
		}
		out = append(out, CDFPoint{X: float64(v), Y: float64(i+1) / n})
	}
	return out
}

// GraphStats captures the specification-as-graph metrics the paper
// proposes for complexity comparisons between services (and clouds).
type GraphStats struct {
	Service     string
	Nodes       int     // SMs
	Edges       int     // dependency edges between SMs
	EdgeDensity float64 // edges / (nodes * (nodes-1))
	States      int
	Transitions int
	Checks      int
	MaxDepth    int // longest containment chain
}

// Graph computes the dependency-graph statistics of a service.
func Graph(svc *spec.Service) GraphStats {
	gs := GraphStats{Service: svc.Name, Nodes: len(svc.SMs)}
	for _, sm := range svc.SMs {
		gs.Edges += len(Dependencies(sm))
		gs.States += len(sm.States)
		for _, tr := range sm.Transitions {
			if tr.Internal {
				continue
			}
			gs.Transitions++
			gs.Checks += countAsserts(tr.Body)
		}
		if d := containmentDepth(svc, sm); d > gs.MaxDepth {
			gs.MaxDepth = d
		}
	}
	if gs.Nodes > 1 {
		gs.EdgeDensity = float64(gs.Edges) / float64(gs.Nodes*(gs.Nodes-1))
	}
	return gs
}

func countAsserts(stmts []spec.Stmt) int {
	n := 0
	for _, s := range stmts {
		switch st := s.(type) {
		case *spec.AssertStmt:
			n++
		case *spec.IfStmt:
			n += countAsserts(st.Then) + countAsserts(st.Else)
		case *spec.ForEachStmt:
			n += countAsserts(st.Body)
		}
	}
	return n
}

func containmentDepth(svc *spec.Service, sm *spec.SM) int {
	depth := 0
	for cur := sm; cur != nil && cur.Parent != ""; cur = svc.SM(cur.Parent) {
		depth++
		if depth > len(svc.SMs) {
			break // defensive: cyclic parents
		}
	}
	return depth
}

// AntiPattern is a documentation/API-design smell detected from SM
// structure (§4.4 "documentation engineering").
type AntiPattern struct {
	SM     string
	Action string
	Kind   string
	Detail string
}

// AntiPatterns scans a service for design smells:
//   - long-effect-chain: a modify whose cross-resource effect chain
//     touches several other SMs ("a modify() call that requires a long
//     and complex chain of actions updating multiple dependencies
//     across resources may indicate a poorly designed API");
//   - wide-api: a transition with an outsized parameter list;
//   - deep-guards: a transition whose checks nest several conditions
//     deep, indicating under-modularized behaviour.
func AntiPatterns(svc *spec.Service) []AntiPattern {
	var out []AntiPattern
	for _, sm := range svc.SMs {
		for _, tr := range sm.Transitions {
			if tr.Internal {
				continue
			}
			if n := crossSMTouches(svc, sm.Name, tr.Body); n >= 2 && tr.Kind == spec.KModify {
				out = append(out, AntiPattern{
					SM: sm.Name, Action: tr.Name, Kind: "long-effect-chain",
					Detail: fmt.Sprintf("modify updates %d other resource types", n),
				})
			}
			if len(tr.Params) >= 6 {
				out = append(out, AntiPattern{
					SM: sm.Name, Action: tr.Name, Kind: "wide-api",
					Detail: fmt.Sprintf("%d parameters", len(tr.Params)),
				})
			}
			if d := guardDepth(tr.Body, 0); d >= 3 {
				out = append(out, AntiPattern{
					SM: sm.Name, Action: tr.Name, Kind: "deep-guards",
					Detail: fmt.Sprintf("checks nested %d levels deep", d),
				})
			}
		}
	}
	return out
}

func crossSMTouches(svc *spec.Service, own string, stmts []spec.Stmt) int {
	touched := map[string]bool{}
	var walk func([]spec.Stmt)
	walk = func(ss []spec.Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *spec.CallStmt:
				target := ""
				if strings.HasPrefix(st.Trans, "_Set_") {
					rest := strings.TrimPrefix(st.Trans, "_Set_")
					if i := strings.Index(rest, "_"); i > 0 {
						target = rest[:i]
					}
				} else if strings.HasPrefix(st.Trans, "_Reclaim_") {
					target = strings.TrimPrefix(st.Trans, "_Reclaim_")
				} else if smx, _, ok := svc.Action(st.Trans); ok {
					target = smx.Name
				}
				if target != "" && target != own {
					touched[target] = true
				}
			case *spec.IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *spec.ForEachStmt:
				walk(st.Body)
			}
		}
	}
	walk(stmts)
	return len(touched)
}

func guardDepth(stmts []spec.Stmt, depth int) int {
	max := 0
	for _, s := range stmts {
		switch st := s.(type) {
		case *spec.AssertStmt:
			if depth+1 > max {
				max = depth + 1
			}
		case *spec.IfStmt:
			if d := guardDepth(st.Then, depth+1); d > max {
				max = d
			}
			if d := guardDepth(st.Else, depth+1); d > max {
				max = d
			}
		case *spec.ForEachStmt:
			if d := guardDepth(st.Body, depth+1); d > max {
				max = d
			}
		}
	}
	return max
}
