package trace

import (
	"strings"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/manual"
)

func vpcIgwTrace() Trace {
	return Trace{
		Name:     "vpc-igw-delete",
		Scenario: "edge-cases",
		Steps: []Step{
			{Action: "CreateVpc", Params: map[string]Arg{"cidrBlock": S("10.0.0.0/16")}, Save: map[string]string{"vpcId": "vpc"}},
			{Action: "CreateInternetGateway", Save: map[string]string{"internetGatewayId": "igw"}},
			{Action: "AttachInternetGateway", Params: map[string]Arg{"internetGatewayId": Ref("igw"), "vpcId": Ref("vpc")}},
			{Action: "DeleteVpc", Params: map[string]Arg{"vpcId": Ref("vpc")}, Note: "must fail with DependencyViolation"},
		},
	}
}

func TestRunBindings(t *testing.T) {
	oracle := ec2.New()
	out := Run(oracle, vpcIgwTrace())
	if !out[0].OK || !out[1].OK || !out[2].OK {
		t.Fatalf("setup steps failed: %+v", out)
	}
	if out[3].OK || out[3].Code != "DependencyViolation" {
		t.Errorf("final step = %+v", out[3])
	}
}

func TestRunUnresolvedBinding(t *testing.T) {
	oracle := ec2.New()
	out := Run(oracle, Trace{Steps: []Step{{Action: "DeleteVpc", Params: map[string]Arg{"vpcId": Ref("nope")}}}})
	if !out[0].Broken {
		t.Errorf("outcome = %+v", out[0])
	}
}

func TestCompareSelfAligned(t *testing.T) {
	rep := Compare(ec2.New(), ec2.New(), vpcIgwTrace())
	if !rep.Aligned() {
		t.Errorf("oracle not aligned with itself:\n%s", FormatReport(rep))
	}
}

func TestCompareDetectsMissedFailure(t *testing.T) {
	// The Moto-style baseline accepts DeleteVpc where the oracle
	// rejects it → missed-failure at step 3.
	rep := Compare(manual.NewEC2(), ec2.New(), vpcIgwTrace())
	if rep.Aligned() {
		t.Fatal("baseline unexpectedly aligned")
	}
	d := rep.FirstDiff()
	if d.Kind != DiffMissedFailure || d.Action != "DeleteVpc" {
		t.Errorf("first diff = %+v", d)
	}
	if !strings.Contains(FormatReport(rep), "missed-failure") {
		t.Error("report text missing kind")
	}
}

func TestDiffKinds(t *testing.T) {
	okA := &Outcome{OK: true, Result: cloudapi.Result{"x": cloudapi.Int(1)}}
	okB := &Outcome{OK: true, Result: cloudapi.Result{"x": cloudapi.Int(2)}}
	failA := &Outcome{Code: "A"}
	failB := &Outcome{Code: "B"}
	broken := &Outcome{Broken: true}

	if d := diffStep(0, "T", okA, okA); d.Kind != DiffNone {
		t.Errorf("same ok = %v", d.Kind)
	}
	if d := diffStep(0, "T", okA, okB); d.Kind != DiffResult {
		t.Errorf("result mismatch = %v", d.Kind)
	}
	if d := diffStep(0, "T", okA, failA); d.Kind != DiffMissedFailure {
		t.Errorf("missed failure = %v", d.Kind)
	}
	if d := diffStep(0, "T", failA, okA); d.Kind != DiffSpuriousFailure {
		t.Errorf("spurious = %v", d.Kind)
	}
	if d := diffStep(0, "T", failA, failB); d.Kind != DiffWrongCode {
		t.Errorf("wrong code = %v", d.Kind)
	}
	if d := diffStep(0, "T", failA, failA); d.Kind != DiffNone {
		t.Errorf("same failure = %v", d.Kind)
	}
	if d := diffStep(0, "T", okA, broken); d.Kind != DiffBroken {
		t.Errorf("broken = %v", d.Kind)
	}
}

func TestResultDiffNormalizesRefs(t *testing.T) {
	a := cloudapi.Result{"id": cloudapi.RefVal("Vpc", "vpc-1")}
	b := cloudapi.Result{"id": cloudapi.Str("vpc-1")}
	if _, _, ok := resultDiff(a, b); !ok {
		t.Error("ref vs id string should compare equal after normalization")
	}
}

// fixedBackend answers every call with the same result.
type fixedBackend struct{ res cloudapi.Result }

func (fixedBackend) Service() string                                    { return "fixed" }
func (fixedBackend) Actions() []string                                  { return []string{"Get"} }
func (b fixedBackend) Invoke(cloudapi.Request) (cloudapi.Result, error) { return b.res, nil }
func (fixedBackend) Reset()                                             {}

// TestResultDiffDetailIsDeterministic: with several attributes
// mismatching, the reported one must not depend on map iteration
// order — the lexicographically first wins, and missing attributes
// outrank unequal ones, which outrank extra ones.
func TestResultDiffDetailIsDeterministic(t *testing.T) {
	tr := Trace{Name: "two-mismatches", Steps: []Step{{Action: "Get"}}}
	subject := fixedBackend{cloudapi.Result{"alpha": cloudapi.Int(1), "beta": cloudapi.Int(2), "same": cloudapi.Str("x")}}
	oracle := fixedBackend{cloudapi.Result{"alpha": cloudapi.Int(10), "beta": cloudapi.Int(20), "same": cloudapi.RefVal("T", "x")}}
	details := map[string]bool{}
	for i := 0; i < 200; i++ {
		rep := Compare(subject, oracle, tr)
		if rep.Aligned() {
			t.Fatal("two mismatching attributes compared aligned")
		}
		details[rep.FirstDiff().Detail] = true
	}
	if len(details) != 1 {
		t.Fatalf("200 comparisons gave %d different details: %v", len(details), details)
	}
	if want := `result attribute "alpha": emulator 1, cloud 10`; !details[want] {
		t.Errorf("detail = %v, want %q", details, want)
	}

	cases := []struct {
		name     string
		sub, ora cloudapi.Result
		key, why string
	}{
		{"missing outranks unequal",
			cloudapi.Result{"a": cloudapi.Int(1)},
			cloudapi.Result{"a": cloudapi.Int(2), "z": cloudapi.Int(1)},
			"z", "missing from emulator response"},
		{"first missing",
			cloudapi.Result{},
			cloudapi.Result{"m": cloudapi.Nil, "c": cloudapi.Nil, "q": cloudapi.Nil},
			"c", "missing from emulator response"},
		{"unequal outranks extra",
			cloudapi.Result{"a": cloudapi.Int(1), "z": cloudapi.Int(1), "b": cloudapi.Nil},
			cloudapi.Result{"z": cloudapi.Int(2), "a": cloudapi.Int(1)},
			"z", "emulator 1, cloud 2"},
		{"first extra",
			cloudapi.Result{"y": cloudapi.Nil, "x": cloudapi.Nil},
			cloudapi.Result{},
			"x", "extra attribute in emulator response"},
		{"values render normalized",
			cloudapi.Result{"id": cloudapi.List(cloudapi.RefVal("Vpc", "vpc-1"))},
			cloudapi.Result{"id": cloudapi.List(cloudapi.Str("vpc-2"))},
			"id", `emulator ["vpc-1"], cloud ["vpc-2"]`},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			key, why, ok := resultDiff(c.sub, c.ora)
			if ok || key != c.key || why != c.why {
				t.Fatalf("%s: resultDiff = (%q, %q, %v), want (%q, %q, false)", c.name, key, why, ok, c.key, c.why)
			}
		}
	}
}

// TestDiffMatchesCompare: diffing two finished replays is exactly the
// comparison that runs them.
func TestDiffMatchesCompare(t *testing.T) {
	tr := vpcIgwTrace()
	want := CompareIndexed(manual.NewEC2(), ec2.New(), 3, tr)
	got := Diff(3, tr, Run(manual.NewEC2(), tr), Run(ec2.New(), tr))
	if FormatReport(got) != FormatReport(want) || got.TraceIndex != 3 || len(got.Diffs) != len(want.Diffs) {
		t.Errorf("Diff report differs from CompareIndexed:\n%s\nvs\n%s", FormatReport(got), FormatReport(want))
	}
}

func TestSummary(t *testing.T) {
	reports := []Report{{}, {Diffs: []StepDiff{{}}}, {}}
	if Summary(reports) != "2/3" {
		t.Errorf("summary = %s", Summary(reports))
	}
	if AlignedCount(reports) != 2 {
		t.Error("aligned count")
	}
}
