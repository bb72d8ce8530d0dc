package interp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lce"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/interp"
	"lce/internal/spec"
	"lce/internal/symexec"
	"lce/internal/synth"
	"lce/internal/trace"
)

// rebuildCase is one service's draft under repair, with the emulator
// its last repair rebuilt and the service's align suite.
type rebuildCase struct {
	name  string
	svc   *spec.Service
	brief *docs.ServiceDoc
	emu   *interp.Emulator
	suite []trace.Trace
	// walk replays the suite through the reference walker too, step by
	// step with world snapshots; otherwise outcomes are compared.
	walk bool
	// held is the printed form of each SM the service held before the
	// repair under test (hold).
	held map[*spec.SM]string
}

// briefs are the learnable services' documentation.
var briefs = map[string]func() *docs.ServiceDoc{
	"ec2":              corpus.EC2,
	"dynamodb":         corpus.DynamoDB,
	"network-firewall": corpus.NetworkFirewall,
	"azure-network":    corpus.Azure,
}

func newRebuildCase(t *testing.T, service string, opts synth.Options, walk bool) *rebuildCase {
	t.Helper()
	brief := briefs[service]()
	svc, _, err := synth.SynthesizeFromBrief(brief, opts)
	if err != nil {
		t.Fatalf("%s: synthesize: %v", service, err)
	}
	seeds := lce.Scenarios(service)
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatalf("%s: New: %v", service, err)
	}
	return &rebuildCase{
		name:  fmt.Sprintf("%s seed %d", service, opts.Noise.Seed),
		svc:   svc,
		brief: brief,
		emu:   emu,
		suite: append(seeds, symexec.ViolationTraces(svc, seeds)...),
		walk:  walk,
	}
}

// hold records the printed form of every SM the service holds, before
// a repair. An SM held at the last hold and not edited since keeps the
// form recorded then.
func (c *rebuildCase) hold() {
	held := make(map[*spec.SM]string, len(c.svc.SMs))
	for _, sm := range c.svc.SMs {
		p, ok := c.held[sm]
		if !ok {
			p = spec.PrintSM(sm)
		}
		held[sm] = p
	}
	c.held = held
}

// after checks the service once a repair replaced some of its SMs: no
// SM it held at the last hold was edited in place, the check on record
// (synth's incremental one) equals a whole-service Check, the
// incremental index equals a rebuilt one, and the rebuilt emulator, a
// freshly compiled one and the reference walker give the same outcomes
// over the align suite. before names the actions the service had
// before the repair.
func (c *rebuildCase) after(t *testing.T, what string, before []string) {
	t.Helper()
	for sm, p := range c.held {
		if spec.PrintSM(sm) != p {
			t.Fatalf("%s, %s: SM %s was edited in place:\n%s\nnow\n%s", c.name, what, sm.Name, p, spec.PrintSM(sm))
		}
	}
	// A second service over the same SMs is indexed and checked from
	// scratch without disturbing the first one's tables and records.
	whole := &spec.Service{Name: c.svc.Name, SMs: slices.Clone(c.svc.SMs)}
	names := append(before, transitionNames(c.svc)...)
	inc, incView := errText(spec.Recheck(c.svc, spec.Strict)), indexView(c.svc, names)
	if err := whole.Index(); err != nil {
		t.Fatalf("%s, %s: Index: %v", c.name, what, err)
	}
	if full := errText(spec.Check(whole, spec.Strict)); inc != full {
		t.Fatalf("%s, %s: incremental check\n%s\nwhole-service Check\n%s", c.name, what, inc, full)
	}
	if rebuilt := indexView(whole, names); incView != rebuilt {
		t.Fatalf("%s, %s: incremental index\n%s\nrebuilt index\n%s", c.name, what, incView, rebuilt)
	}

	emu, err := c.emu.Rebuild()
	if err != nil {
		t.Fatalf("%s, %s: Rebuild: %v", c.name, what, err)
	}
	c.emu = emu
	fresh, err := interp.New(whole)
	if err != nil {
		t.Fatalf("%s, %s: New: %v", c.name, what, err)
	}
	ref, err := interp.NewReference(whole)
	if err != nil {
		t.Fatalf("%s, %s: NewReference: %v", c.name, what, err)
	}
	if c.walk {
		interp.DiffSuite(t, ref, emu, c.suite, 0, 0)
	}
	for _, tr := range c.suite {
		got := trace.Run(emu, tr)
		if want := trace.Run(fresh, tr); !cloudapitest.DeepEqual(got, want) {
			t.Fatalf("%s, %s: trace %s: rebuilt emulator\n%+v\nfresh emulator\n%+v", c.name, what, tr.Name, got, want)
		}
		if !c.walk {
			if want := trace.Run(ref, tr); !cloudapitest.DeepEqual(got, want) {
				t.Fatalf("%s, %s: trace %s: engine\n%+v\nwalker\n%+v", c.name, what, tr.Name, got, want)
			}
		}
	}
}

func transitionNames(svc *spec.Service) []string {
	var out []string
	for _, sm := range svc.SMs {
		for _, tr := range sm.Transitions {
			out = append(out, tr.Name)
		}
	}
	return out
}

// indexView renders what a service's index answers: each SM's entry
// and slot layout, the owner of every named action, and the public
// action list.
func indexView(svc *spec.Service, actions []string) string {
	var b strings.Builder
	for _, sm := range svc.SMs {
		fmt.Fprintf(&b, "sm %s indexed=%v slots=%v prefix=%s\n", sm.Name, svc.SM(sm.Name) == sm, sm.SlotNames(), sm.ResolvedIDPrefix())
	}
	for _, name := range actions {
		sm, tr, ok := svc.Action(name)
		if !ok {
			fmt.Fprintf(&b, "action %s: none\n", name)
			continue
		}
		fmt.Fprintf(&b, "action %s: %s#%d\n", name, sm.Name, slices.Index(sm.Transitions, tr))
	}
	fmt.Fprintf(&b, "public %v\n", svc.Actions())
	return b.String()
}

func errText(errs []error) string {
	var b strings.Builder
	for _, err := range errs {
		b.WriteString(err.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRebuildMatchesFreshBuild replays every repair of the default loop
// — redocumented SMs and adopted cloud codes, in the loop's order — and
// then, for noise seeds 1–50, repairs every SM of the draft in turn,
// for each learnable service, putting back the saved SMs after each
// repair that fails its check. No repair may edit an SM the service
// held before it, and after each repair and each roll-back the
// incremental check, index and rebuild must equal their from-scratch
// versions (after).
func TestRebuildMatchesFreshBuild(t *testing.T) {
	for _, service := range []string{"ec2", "dynamodb", "network-firewall", "azure-network"} {
		t.Run(service, func(t *testing.T) {
			t.Parallel()
			replayDefaultLoop(t, service)
			for seed := int64(1); seed <= 50; seed++ {
				opts := lce.DefaultOptions()
				opts.Noise.Seed = seed
				c := newRebuildCase(t, service, opts, false)
				var order []string
				for _, sm := range c.svc.SMs {
					order = append(order, sm.Name)
				}
				for _, name := range order {
					before := transitionNames(c.svc)
					saved := slices.Clone(c.svc.SMs)
					c.hold()
					// A repair that leaves the spec ill-formed still
					// changed it: the check on record must say so, and
					// the engines must still agree on the ill-formed spec.
					// Then the saved SMs are put back, as the loop does.
					err := synth.RepairSM(c.svc, c.brief, name)
					c.after(t, "repair "+name, before)
					if err != nil {
						repaired := transitionNames(c.svc)
						c.svc.SMs = saved
						if err := c.svc.Reindex(); err != nil {
							t.Fatalf("%s: roll back %s: %v", c.name, name, err)
						}
						c.after(t, "roll back "+name, repaired)
					}
				}
			}
		})
	}
}

// replayDefaultLoop applies the default loop's repairs to its draft in
// the loop's order, checking after each one.
func replayDefaultLoop(t *testing.T, service string) {
	res, err := lce.Align(service, lce.DefaultOptions(), lce.AlignConfig{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", service, err)
	}
	c := newRebuildCase(t, service, lce.DefaultOptions(), true)
	repairs := 0
	for _, r := range res.Rounds {
		for _, rep := range r.Repairs {
			before := transitionNames(c.svc)
			c.hold()
			switch rep.Kind {
			case "redocument-sm":
				if err := synth.RepairSM(c.svc, c.brief, rep.Target); err != nil {
					t.Fatalf("%s: repair %s: %v", c.name, rep.Target, err)
				}
			case "adopt-cloud-code":
				action, _, _ := strings.Cut(rep.Target, "/")
				var doc, cloud string
				if _, err := fmt.Sscanf(rep.Reason, "documentation says %s cloud returns %s", &doc, &cloud); err != nil {
					t.Fatalf("%s: reason %q: %v", c.name, rep.Reason, err)
				}
				if !synth.SetAssertCode(c.svc, action, strings.TrimSuffix(doc, ","), cloud) {
					t.Fatalf("%s: %s matched no assert", c.name, rep.Target)
				}
			}
			c.after(t, rep.Kind+" "+rep.Target, before)
			repairs++
		}
	}
	if repairs == 0 {
		t.Fatalf("%s: the default loop made no repair", service)
	}
}
