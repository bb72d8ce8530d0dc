package spec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

const reindexSrc = `
service s {
  sm A {
    states { x: int  y: str }
    transition MkA() create { write(x, 1) }
    transition _Set_A_x(self: ref(A), v: int) modify internal { write(x, v) }
  }
  sm B {
    states { a: ref(A) }
    transition MkB(a: ref(A)) create { write(a, a) assert(a.x > 0) error "E" }
  }
  sm C {
    states { n: int }
    transition MkC() create { write(n, 0) }
    transition DropC(self: ref(C)) destroy { }
  }
}
`

const freshA = `sm A {
  states { y: str }
  transition MkA() create { write(y, "y") }
}`

// reindexed re-indexes svc after SMs were replaced, then indexes and
// checks a second service over the same SMs from scratch and requires
// its tables and errors to equal svc's incremental ones.
func reindexed(t *testing.T, what string, svc *Service) error {
	t.Helper()
	incErr := svc.Reindex()
	whole := &Service{Name: svc.Name, SMs: slices.Clone(svc.SMs)}
	if err := whole.Index(); fmt.Sprint(err) != fmt.Sprint(incErr) {
		t.Fatalf("%s: Reindex error %v, Index error %v", what, incErr, err)
	}
	if incErr != nil {
		return incErr
	}
	if !reflect.DeepEqual(svc.smIndex, whole.smIndex) || !reflect.DeepEqual(svc.actIdx, whole.actIdx) {
		t.Fatalf("%s: incremental tables differ from rebuilt ones", what)
	}
	inc, full := fmt.Sprint(Recheck(svc, Strict)), fmt.Sprint(Check(whole, Strict))
	if inc != full {
		t.Fatalf("%s: incremental check %s, whole-service Check %s", what, inc, full)
	}
	return nil
}

// replaced returns a copy of sm with the given transitions: the way a
// change reaches an SM that was indexed or checked.
func replaced(sm *SM, trs ...*Transition) *SM {
	cp := *sm
	cp.Transitions = trs
	return &cp
}

// TestReindexMatchesIndex replaces SMs of a service in every way
// Reindex and Recheck must follow — an SM replaced by one without a
// state a neighbour reads and then restored, a transition dropped, a
// transition moved, an SM appended, a clashing action and the list
// restored after it — and compares the incremental tables and check
// with a from-scratch Index and Check.
func TestReindexMatchesIndex(t *testing.T) {
	svc, err := Parse(reindexSrc)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Check(svc, Strict); len(errs) != 0 {
		t.Fatalf("base spec: %v", errs)
	}
	a, err := ParseSM(freshA)
	if err != nil {
		t.Fatal(err)
	}
	orig := slices.Clone(svc.SMs)
	svc.SMs[0] = a
	reindexed(t, "replace A", svc)
	if got := Recheck(svc, Strict); len(got) == 0 {
		t.Fatal("B reads A.x, which the fresh A lacks, yet the check passed")
	}
	if !slices.Contains(svc.Reads("B"), "A") {
		t.Errorf("B's reads %v lack A", svc.Reads("B"))
	}
	svc.SMs = slices.Clone(orig)
	reindexed(t, "restore A", svc)
	if got := Recheck(svc, Strict); len(got) != 0 {
		t.Fatalf("restored A: %v", got)
	}
	svc.SMs[0] = a
	reindexed(t, "replace A again", svc)

	c := svc.SM("C")
	drop := c.Transitions[1]
	svc.SMs[2] = replaced(c, c.Transitions[0])
	reindexed(t, "C loses DropC", svc)

	svc.SMs[0] = replaced(a, append(slices.Clip(a.Transitions), drop)...)
	reindexed(t, "DropC appears on A", svc)

	d, err := ParseSM(`sm D { transition MkD() create { } }`)
	if err != nil {
		t.Fatal(err)
	}
	svc.SMs = append(svc.SMs, d)
	reindexed(t, "D appended", svc)

	beforeClash := slices.Clone(svc.SMs)
	svc.SMs[3] = replaced(d, append(slices.Clip(d.Transitions), &Transition{Name: "MkC", Kind: KCreate})...)
	if reindexed(t, "D clashes with C", svc) == nil {
		t.Fatal("a clashing action indexed cleanly")
	}
	svc.SMs = beforeClash
	reindexed(t, "restore D", svc)
}
