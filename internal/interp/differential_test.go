package interp

import (
	"testing"

	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/fault"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/synth"
	"lce/internal/trace"
)

// stepRecord is everything one engine did with one call: what
// invokeBoth compares, captured so a whole trace can be replayed
// through each side independently (trace.Run resets and re-binds per
// backend) and differenced afterwards.
type stepRecord struct {
	action string
	result cloudapi.Result
	errTxt string
	isErr  bool
	isAPI  bool
	world  map[string]map[string]cloudapi.Value
}

// recorder sits directly on an engine — inside any fault layer, so it
// sees exactly the calls that reached the interpreter — and records a
// stepRecord per Invoke.
type recorder struct {
	engine
	steps []stepRecord
}

func (r *recorder) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	res, err := r.engine.Invoke(req)
	rec := stepRecord{action: req.Action, result: res, isErr: err != nil, world: r.World().Snapshot()}
	if err != nil {
		rec.errTxt = err.Error()
		_, rec.isAPI = cloudapi.AsAPIError(err)
	}
	r.steps = append(r.steps, rec)
	return res, err
}

// diffSuite replays every trace through the reference and through the
// engine under test and fails on the first divergent step: result,
// error text, API-error-ness and world snapshot at the interpreter,
// plus the caller-visible outcomes. With faultRate > 0 both sides sit
// behind injectors carrying the same seed, which draw identical
// decision streams, so injected faults must line up too.
func diffSuite(t *testing.T, ref, emu engine, suite []trace.Trace, faultRate float64, chaosSeed int64) {
	t.Helper()
	rr, re := &recorder{engine: ref}, &recorder{engine: emu}
	var rb, eb cloudapi.Backend = rr, re
	if faultRate > 0 {
		rb = fault.Wrap(rb, fault.Uniform(faultRate, chaosSeed))
		eb = fault.Wrap(eb, fault.Uniform(faultRate, chaosSeed))
	}
	calls := 0
	for _, tr := range suite {
		rr.steps, re.steps = rr.steps[:0], re.steps[:0]
		or, oe := trace.Run(rb, tr), trace.Run(eb, tr)
		if len(rr.steps) != len(re.steps) {
			t.Fatalf("%s: reference saw %d calls, engine saw %d", tr.Name, len(rr.steps), len(re.steps))
		}
		for i := range rr.steps {
			if !cloudapitest.DeepEqual(rr.steps[i], re.steps[i]) {
				t.Fatalf("%s call %d (%s) diverged:\n  reference: %+v\n  engine:    %+v", tr.Name, i, rr.steps[i].action, rr.steps[i], re.steps[i])
			}
		}
		if !cloudapitest.DeepEqual(or, oe) {
			t.Fatalf("%s: caller-visible outcomes diverged:\n  reference: %+v\n  engine:    %+v", tr.Name, or, oe)
		}
		calls += len(rr.steps)
	}
	if calls == 0 {
		t.Fatal("suite replayed zero calls")
	}
}

var perfect = synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained}

// learnedPair synthesizes the spec twice and builds the reference over
// one copy and the engine over the other, so the two share nothing but
// the documentation.
func learnedPair(t *testing.T, brief func() *docs.ServiceDoc, opts synth.Options) (*walker, *Emulator) {
	t.Helper()
	build := func() *spec.Service {
		s, _, err := synth.SynthesizeFromBrief(brief(), opts)
		if err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		return s
	}
	ref, err := newWalker(build())
	if err != nil {
		t.Fatalf("newWalker: %v", err)
	}
	emu, err := New(build())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ref, emu
}

// learnable lists the four services with documentation corpora and the
// suites lce.Scenarios serves for them.
var learnable = []struct {
	service string
	brief   func() *docs.ServiceDoc
	suite   func() []trace.Trace
}{
	{"ec2", corpus.EC2, func() []trace.Trace { return append(scenarios.EC2Fig3(), scenarios.EC2Extended()...) }},
	{"dynamodb", corpus.DynamoDB, scenarios.DynamoDB},
	{"network-firewall", corpus.NetworkFirewall, scenarios.NetworkFirewall},
	{"azure-network", corpus.Azure, scenarios.AzureFig3},
}

// TestInterpDifferentialServices is the wide parity table: every
// learnable service × the faithful extraction and the default noise
// model (alignment executes noisy specs, so the engine must agree with
// the reference on wrong specs too), each replayed clean and under
// same-seed chaos.
func TestInterpDifferentialServices(t *testing.T) {
	for _, svc := range learnable {
		for _, noise := range []struct {
			name string
			opts synth.Options
		}{
			{"perfect", perfect},
			{"noisy", synth.DefaultOptions()},
		} {
			for _, chaos := range []struct {
				name string
				rate float64
			}{{"clean", 0}, {"chaos", 0.3}} {
				t.Run(svc.service+"/"+noise.name+"/"+chaos.name, func(t *testing.T) {
					ref, emu := learnedPair(t, svc.brief, noise.opts)
					diffSuite(t, ref, emu, svc.suite(), chaos.rate, 20260808)
				})
			}
		}
	}
}

// TestInterpDifferentialFork replays the EC2 suite through a Fork()ed
// emulator against a fresh reference: the shared program must behave
// the same from a fork as from the emulator that compiled it, and the
// parent's world must stay untouched.
func TestInterpDifferentialFork(t *testing.T) {
	ec2 := learnable[0]
	ref, parent := learnedPair(t, ec2.brief, perfect)
	diffSuite(t, ref, parent.Fork().(*Emulator), ec2.suite(), 0, 0)
	if n := len(parent.World().Snapshot()); n != 0 {
		t.Fatalf("fork's calls left %d instances in the parent's world", n)
	}
}

// hotLoopSpec is the validation-heavy shape where interpretation
// overhead dominates — a describe sweeping a list with nine predicates
// per element: range checks, nil checks, arithmetic bounds and an
// allow-list membership chain. No allocation, no world mutation, so
// every specialised comparison and arithmetic form the compiler emits
// is on the path.
const hotLoopSpec = `
service interpbench {
  sm Table {
    idprefix "tbl"
    states {
      items: list(int)
      n: int
    }
    transition MkTable() create {
      return(tableId, id(self))
    }
    transition Fill(self: ref(Table)) modify {
      write(items, append(read(items), 7))
      write(n, len(read(items)))
    }
    transition Audit(self: ref(Table)) describe {
      foreach it in read(items) {
        assert(it >= 0)
        assert(it < 1000000)
        assert(!isnil(it))
        assert(it + 1 > it)
        assert(it == 7 || it > 100)
        assert(it <= 7)
        assert(it != 0)
        assert(it - 1 < it)
        assert(it == 1 || it == 3 || it == 5 || it == 7)
      }
    }
  }
}
`

// TestInterpDifferentialHotLoop fills a 96-element list and audits it
// through both engines.
func TestInterpDifferentialHotLoop(t *testing.T) {
	walk, comp := diffPair(t, hotLoopSpec)
	res, err := invokeBoth(t, walk, comp, "MkTable", nil)
	if err != nil {
		t.Fatalf("MkTable: %v", err)
	}
	self := cloudapi.Params{"self": res.Get("tableId")}
	for i := 0; i < 96; i++ {
		if _, err := invokeBoth(t, walk, comp, "Fill", self); err != nil {
			t.Fatalf("Fill: %v", err)
		}
	}
	if _, err := invokeBoth(t, walk, comp, "Audit", self); err != nil {
		t.Fatalf("Audit: %v", err)
	}
}

// TestNilCallTargetAnswersNotFound: in the dynamodb noise-seed-5 draft,
// DeleteTable lost its existence check and reclaims
// first(matching("Table", …)) — nil for a table that does not exist.
// A call on a nil target answers the not-found code of the SM owning
// the callee, as the cloud does, on both engines; it used to break the
// step with an interpreter error.
func TestNilCallTargetAnswersNotFound(t *testing.T) {
	opts := synth.DefaultOptions()
	opts.Noise.Seed = 5
	ref, emu := learnedPair(t, corpus.DynamoDB, opts)
	var tr trace.Trace
	for _, s := range scenarios.DynamoDB() {
		if s.Name == "ddb-global-export-import" {
			tr = s
		}
	}
	tr.Steps = append(tr.Steps[:3:3], trace.Step{Action: "DeleteTable", Params: map[string]trace.Arg{"tableName": {Lit: cloudapi.Str("zz")}}})
	diffSuite(t, ref, emu, []trace.Trace{tr}, 0, 0)
	rep := trace.Compare(emu, dynamodb.New(), tr)
	last, cloud := rep.Subject[len(rep.Subject)-1], rep.Oracle[len(rep.Oracle)-1]
	if last.Broken || last.Code != "ResourceNotFoundException" || last.Code != cloud.Code {
		t.Errorf("DeleteTable(zz): broken=%v code=%q (%s); the oracle answers %q", last.Broken, last.Code, last.Message, cloud.Code)
	}
}
