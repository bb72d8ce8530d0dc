package synth

import (
	"strings"
	"testing"

	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloud/aws/netfw"
	"lce/internal/cloud/azure"
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/interp"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/trace"
)

// synthPerfect synthesizes a noise-free emulator from a corpus.
func synthPerfect(t *testing.T, d *docs.ServiceDoc) *interp.Emulator {
	t.Helper()
	svc, _, err := Synthesize(docs.Render(d), Options{Noise: Perfect, Decoding: Constrained})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	return emu
}

func mustAlign(t *testing.T, emu cloudapi.Backend, oracle cloudapi.Backend, traces []trace.Trace) {
	t.Helper()
	for _, tr := range traces {
		rep := trace.Compare(emu, oracle, tr)
		if !rep.Aligned() {
			t.Errorf("%s", trace.FormatReport(rep))
		}
	}
}

// TestPerfectExtractionAlignsEC2 is the linchpin of the reproduction:
// a noise-free extraction of the EC2 documentation, interpreted by the
// SM framework, is behaviourally indistinguishable from the
// hand-written oracle on every Fig. 3 trace and every extended parity
// trace.
func TestPerfectExtractionAlignsEC2(t *testing.T) {
	emu := synthPerfect(t, corpus.EC2())
	oracle := ec2.New()
	mustAlign(t, emu, oracle, scenarios.EC2Fig3())
	mustAlign(t, emu, oracle, scenarios.EC2Extended())
}

func TestPerfectExtractionAlignsNetworkFirewall(t *testing.T) {
	emu := synthPerfect(t, corpus.NetworkFirewall())
	mustAlign(t, emu, netfw.New(), scenarios.NetworkFirewall())
}

func TestPerfectExtractionAlignsDynamoDB(t *testing.T) {
	emu := synthPerfect(t, corpus.DynamoDB())
	mustAlign(t, emu, dynamodb.New(), scenarios.DynamoDB())
}

func TestPerfectExtractionAlignsAzure(t *testing.T) {
	emu := synthPerfect(t, corpus.Azure())
	mustAlign(t, emu, azure.New(), scenarios.AzureFig3())
}

// TestLearnedCoverage verifies the "versus manual engineering" claim:
// the learned emulator's public action surface equals the oracle's —
// every documented action is served.
func TestLearnedCoverage(t *testing.T) {
	cases := []struct {
		doc    *docs.ServiceDoc
		oracle cloudapi.Backend
	}{
		{corpus.EC2(), ec2.New()},
		{corpus.NetworkFirewall(), netfw.New()},
		{corpus.DynamoDB(), dynamodb.New()},
		{corpus.Azure(), azure.New()},
	}
	for _, tc := range cases {
		emu := synthPerfect(t, tc.doc)
		got := emu.Actions()
		want := tc.oracle.Actions()
		if len(got) != len(want) {
			t.Errorf("%s: learned %d actions, oracle %d", tc.doc.Service, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: action %d = %s, want %s", tc.doc.Service, i, got[i], want[i])
			}
		}
	}
}

func TestFig4SMCounts(t *testing.T) {
	// Fig. 4's headline counts: 28 SMs for EC2, 8 for network firewall,
	// 7 for DynamoDB.
	for _, tc := range []struct {
		doc  *docs.ServiceDoc
		want int
	}{
		{corpus.EC2(), 28},
		{corpus.NetworkFirewall(), 8},
		{corpus.DynamoDB(), 7},
	} {
		svc, _, err := Synthesize(docs.Render(tc.doc), Options{Noise: Perfect, Decoding: Constrained})
		if err != nil {
			t.Fatalf("%s: %v", tc.doc.Service, err)
		}
		if got := len(svc.SMs); got != tc.want {
			t.Errorf("%s: %d SMs, want %d", tc.doc.Service, got, tc.want)
		}
	}
}

func TestFreeDecodingRePrompts(t *testing.T) {
	noise := Noise{Seed: 7, SyntaxErr: 0.5}
	_, rep, err := Synthesize(docs.Render(corpus.DynamoDB()), Options{Noise: noise, Decoding: Free, MaxRePrompts: 16})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if rep.RePrompts == 0 {
		t.Error("free decoding with 50% syntax noise produced no re-prompts")
	}
	// Constrained decoding makes syntax errors impossible by
	// construction, whatever the noise says.
	_, rep2, err := Synthesize(docs.Render(corpus.DynamoDB()), Options{Noise: noise, Decoding: Constrained})
	if err != nil {
		t.Fatalf("Synthesize constrained: %v", err)
	}
	if rep2.RePrompts != 0 {
		t.Errorf("constrained decoding re-prompted %d times", rep2.RePrompts)
	}
}

// TestFreeDecodingGivesUp: a resource whose every draw is mangled gets
// one prompt and MaxRePrompts re-prompts, and both the error and the
// report count the re-prompts, not the attempts.
func TestFreeDecodingGivesUp(t *testing.T) {
	brief := &docs.ServiceDoc{Service: "s", Resources: []*docs.ResourceDoc{{
		Name:     "Widget",
		IDPrefix: "w",
		APIs:     []docs.APIDoc{{Name: "CreateWidget", Kind: spec.KCreate}},
	}}}
	_, rep, err := SynthesizeFromBrief(brief, Options{Noise: Noise{SyntaxErr: 1}, Decoding: Free, MaxRePrompts: 2})
	if err == nil {
		t.Fatal("every draw was mangled, yet synthesis succeeded")
	}
	if !strings.Contains(err.Error(), "free decoding failed after 2 re-prompts") {
		t.Errorf("error = %q, want it to count 2 re-prompts", err)
	}
	if rep == nil || rep.RePrompts != 2 {
		t.Errorf("report = %+v, want 2 re-prompts", rep)
	}
}

func TestFreeDecodingRoundTripsEquivalently(t *testing.T) {
	// Free decoding (when the text survives) must parse back to the
	// same behaviour as constrained decoding.
	a, _, err := Synthesize(docs.Render(corpus.EC2()), Options{Noise: Perfect, Decoding: Constrained})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Synthesize(docs.Render(corpus.EC2()), Options{Noise: Perfect, Decoding: Free})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Print(a) != spec.Print(b) {
		t.Error("constrained and free decoding disagree on the noise-free spec")
	}
}

func TestNoiseIsDeterministic(t *testing.T) {
	opts := Options{Noise: Preliminary, Decoding: Constrained}
	a, _, err := Synthesize(docs.Render(corpus.EC2()), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Synthesize(docs.Render(corpus.EC2()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Print(a) != spec.Print(b) {
		t.Error("same seed produced different specs")
	}
	c, _, err := Synthesize(docs.Render(corpus.EC2()), Options{Noise: Noise{Seed: 99, DropCheck: 0.12}, Decoding: Constrained})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Print(a) == spec.Print(c) {
		t.Error("different seeds produced identical noisy specs")
	}
}

func TestNoisyExtractionDiverges(t *testing.T) {
	// With the preliminary noise model, at least one Fig. 3 trace must
	// diverge — otherwise alignment has nothing to do and Fig. 3's
	// "without alignment" arm would be vacuous.
	svc, _, err := Synthesize(docs.Render(corpus.EC2()), Options{Noise: Preliminary, Decoding: Constrained})
	if err != nil {
		t.Fatal(err)
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ec2.New()
	diverged := 0
	for _, tr := range scenarios.EC2Fig3() {
		if !trace.Compare(emu, oracle, tr).Aligned() {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("preliminary noise produced a perfectly aligned emulator")
	}
	t.Logf("preliminary noise: %d/12 Fig. 3 traces diverge before alignment", diverged)
}

func TestRepairSM(t *testing.T) {
	// Break one SM with noise, repair it from the brief, verify the
	// repaired emulator aligns on the trace that exercised it.
	brief := corpus.EC2()
	svc, _, err := SynthesizeFromBrief(brief, Options{Noise: Noise{Seed: 3, DropCheck: 1.0}, Decoding: Constrained})
	if err != nil {
		t.Fatal(err)
	}
	draft := svc.SM("Vpc")
	if err := RepairSM(svc, brief, "Vpc"); err != nil {
		t.Fatalf("RepairSM: %v", err)
	}
	if svc.SM("Vpc") == draft {
		t.Error("RepairSM left the draft Vpc in place, not the SM it re-extracted")
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	// CreateVpc's checks must be back.
	_, err = emu.Invoke(cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("banana")}})
	ae, ok := cloudapi.AsAPIError(err)
	if !ok || ae.Code != "InvalidParameterValue" {
		t.Errorf("repaired CreateVpc validation = %v", err)
	}
}

// TestSetAssertCodeReplacesSM: adopting a code puts an edited copy of
// the SM in the service and leaves the SM it held as it was.
func TestSetAssertCodeReplacesSM(t *testing.T) {
	svc, _, err := SynthesizeFromBrief(corpus.EC2(), Options{Noise: Perfect, Decoding: Constrained})
	if err != nil {
		t.Fatal(err)
	}
	old := svc.SM("Vpc")
	printed := spec.PrintSM(old)
	if !SetAssertCode(svc, "CreateVpc", "InvalidVpc.Range", "Adopted.Code") {
		t.Fatal("no assert of CreateVpc carries InvalidVpc.Range")
	}
	if spec.PrintSM(old) != printed {
		t.Error("SetAssertCode edited the SM the service held")
	}
	if sm, _, _ := svc.Action("CreateVpc"); sm == old || sm != svc.SM("Vpc") || !strings.Contains(spec.PrintSM(sm), `"Adopted.Code"`) {
		t.Errorf("CreateVpc resolves to %p (held %p), want a copy carrying the adopted code", sm, old)
	}
}

func TestDependencyOrderVisitsDepsFirst(t *testing.T) {
	_, rep, err := Synthesize(docs.Render(corpus.EC2()), Options{Noise: Perfect, Decoding: Constrained})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range rep.Order {
		pos[n] = i
	}
	// Vpc must precede Subnet (Subnet's brief references Vpc and the
	// graph is acyclic on that edge).
	if pos["Vpc"] > pos["Subnet"] {
		t.Errorf("order = %v: Vpc generated after Subnet", rep.Order)
	}
	if len(rep.Order) != 28 {
		t.Errorf("order covers %d SMs", len(rep.Order))
	}
}
