package checks

import (
	"testing"

	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/spec"
	"lce/internal/synth"
)

func ec2Svc(t *testing.T) *spec.Service {
	t.Helper()
	svc, _, err := synth.Synthesize(docs.Render(corpus.EC2()), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestComplexitiesExcludeInternalTransitions(t *testing.T) {
	svc := ec2Svc(t)
	for _, c := range Complexities(svc) {
		sm := svc.SM(c.SM)
		public := 0
		for _, tr := range sm.Transitions {
			if !tr.Internal {
				public++
			}
		}
		if c.Transitions != public {
			t.Errorf("%s: transitions = %d, want %d public", c.SM, c.Transitions, public)
		}
		if c.States != len(sm.States) {
			t.Errorf("%s: states = %d", c.SM, c.States)
		}
	}
}

func TestCDFIsMonotoneAndEndsAtOne(t *testing.T) {
	svc := ec2Svc(t)
	points := CDF(svc)
	if len(points) == 0 {
		t.Fatal("empty CDF")
	}
	prevX, prevY := -1.0, 0.0
	for _, p := range points {
		if p.X <= prevX {
			t.Errorf("X not increasing: %v", points)
		}
		if p.Y < prevY {
			t.Errorf("Y not monotone: %v", points)
		}
		prevX, prevY = p.X, p.Y
	}
	if last := points[len(points)-1]; last.Y != 1.0 {
		t.Errorf("CDF ends at %f", last.Y)
	}
}

func TestGraphStats(t *testing.T) {
	svc := ec2Svc(t)
	g := Graph(svc)
	if g.Nodes != 28 {
		t.Errorf("nodes = %d", g.Nodes)
	}
	if g.Edges == 0 || g.EdgeDensity <= 0 || g.EdgeDensity > 1 {
		t.Errorf("edges = %d density = %f", g.Edges, g.EdgeDensity)
	}
	// Vpc ⊃ Subnet ⊃ Instance gives containment depth ≥ 2.
	if g.MaxDepth < 2 {
		t.Errorf("containment depth = %d", g.MaxDepth)
	}
	if g.Checks == 0 || g.States == 0 || g.Transitions == 0 {
		t.Errorf("stats = %+v", g)
	}
}

func TestAntiPatternsDetectKnownSmells(t *testing.T) {
	svc := ec2Svc(t)
	aps := AntiPatterns(svc)
	kinds := map[string]bool{}
	for _, ap := range aps {
		kinds[ap.Kind] = true
	}
	// RunInstances has 6 parameters — the wide-api smell must fire.
	found := false
	for _, ap := range aps {
		if ap.Action == "RunInstances" && ap.Kind == "wide-api" {
			found = true
		}
	}
	if !found {
		t.Errorf("RunInstances wide-api not detected; got %v", aps)
	}
}

func TestAntiPatternLongEffectChain(t *testing.T) {
	src := `service s {
	  sm B { states { x: int } transition MkB() create {} transition _Set_B_x(receiver self: ref(B), v: int) modify internal { write(x, v) } }
	  sm C { states { x: int } transition MkC() create {} transition _Set_C_x(receiver self: ref(C), v: int) modify internal { write(x, v) } }
	  sm A {
	    states { b: ref(B)
	      c: ref(C) }
	    transition MkA() create {}
	    transition Touch(self: ref(A)) modify {
	      call(read(b)._Set_B_x(1))
	      call(read(c)._Set_C_x(2))
	    }
	  }
	}`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	aps := AntiPatterns(svc)
	found := false
	for _, ap := range aps {
		if ap.Kind == "long-effect-chain" && ap.Action == "Touch" {
			found = true
		}
	}
	if !found {
		t.Errorf("long-effect-chain not detected: %v", aps)
	}
}
