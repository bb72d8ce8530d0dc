package align_test

import (
	"fmt"
	"testing"

	"lce"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/interp"
	"lce/internal/spec"
	"lce/internal/trace"
)

// TestPrintedSpecsRoundTrip: every spec the pipeline holds for the four
// learnable services — the faithful (Perfect) extraction, the
// default-options drafts at noise seeds 1–50 (42 is the default), and
// the default loop's aligned Final — prints to text that parses back,
// passes the strict checks, and prints to the same bytes; the re-parsed
// spec's emulator answers the service's scenario suite exactly as the
// original does. network-firewall and azure-network carry their
// hyphenated names through the round trip.
func TestPrintedSpecsRoundTrip(t *testing.T) {
	for _, service := range goldenServices {
		docs, err := lce.Documentation(service)
		if err != nil {
			t.Fatal(err)
		}
		emus := map[string]*lce.Emulator{"aligned": alignCase(t, service, 1, false).Final}
		perfect, _, err := lce.Learn(docs, lce.PerfectOptions())
		if err != nil {
			t.Fatalf("%s: perfect: %v", service, err)
		}
		emus["perfect"] = perfect
		for seed := int64(1); seed <= 50; seed++ {
			opts := lce.DefaultOptions()
			opts.Noise.Seed = seed
			draft, _, err := lce.Learn(docs, opts)
			if err != nil {
				t.Fatalf("%s: draft seed %d: %v", service, seed, err)
			}
			emus[fmt.Sprintf("draft seed %d", seed)] = draft
		}
		for stage, emu := range emus {
			text := spec.Print(emu.Spec())
			again, err := spec.Parse(text)
			if err != nil {
				t.Errorf("%s %s: printed spec does not parse: %v", service, stage, err)
				continue
			}
			if errs := spec.Check(again, spec.Strict); len(errs) > 0 {
				t.Errorf("%s %s: re-parsed spec fails the strict checks: %v", service, stage, errs)
				continue
			}
			if back := spec.Print(again); back != text {
				t.Errorf("%s %s: Print∘Parse is not a fixpoint", service, stage)
			}
			reloaded, err := interp.New(again)
			if err != nil {
				t.Errorf("%s %s: re-parsed spec does not compile: %v", service, stage, err)
				continue
			}
			// Outcomes, not trace.Compare: a draft may break on a
			// step (an unresolved binding), and Compare counts a broken
			// subject as a divergence even when both sides break alike.
			for _, tr := range lce.Scenarios(service) {
				if got, want := trace.Run(reloaded, tr), trace.Run(emu, tr); !cloudapitest.DeepEqual(got, want) {
					t.Errorf("%s %s: re-parsed emulator answers %s differently:\n got %+v\nwant %+v", service, stage, tr.Name, got, want)
				}
			}
		}
	}
}
