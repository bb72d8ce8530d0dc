// Package synth implements the paper's core contribution: synthesizing
// executable SM specifications from cloud documentation. A simulated
// language model reads wrangled per-resource briefs and emits spec
// code; the pipeline around it realizes §4.2 — incremental
// per-resource extraction ordered by the dependency graph, grammar
// conformance via constrained or free decoding, a specification-linking
// pass that patches stubs and lowers cross-resource effects, and
// consistency checks before the spec is accepted.
//
// The language model substitution (see DESIGN.md §1): a deterministic
// extractor composed with a seeded hallucination model that drops or
// corrupts facts at configurable rates per fact category. The rates
// are the experiment's knobs — zero noise validates the abstraction
// end to end, nonzero noise produces the misalignments the alignment
// loop (internal/align) must find and repair.
package synth

// Noise is the hallucination model: per-fact-category drop/corruption
// probabilities applied by the simulated LLM. All draws come from a
// seeded PRNG over a deterministic fact enumeration, so a given
// (corpus, Noise) pair always yields the same spec.
type Noise struct {
	Seed int64
	// DropState is the probability a documented state variable is not
	// captured (the paper's "fails to capture important state
	// variables, such as InstanceTenancy").
	DropState float64
	// DropCheck is the probability a documented constraint is not
	// captured ("missed state checks, like ensuring that no gateways
	// exist in a VPC before DeleteVPC").
	DropCheck float64
	// WrongCode is the probability a captured constraint gets a
	// generic error code instead of the documented one ("failure to
	// return the specific error codes required by client-side
	// tooling").
	WrongCode float64
	// DropLink is the probability a cross-resource effect (call or
	// cross-write) is not captured.
	DropLink float64
	// DropParent is the probability a containment declaration is not
	// captured, silencing the framework's dependency checks.
	DropParent float64
	// SyntaxErr is the probability (per generated SM, free decoding
	// only) that the emitted text is syntactically mangled and must be
	// re-prompted. Constrained decoding makes this structurally
	// impossible (§4.2).
	SyntaxErr float64
}

// Perfect is the zero-noise model: a faithful extraction. Running the
// pipeline with Perfect noise and diffing against the oracle validates
// the whole abstraction stack.
var Perfect = Noise{}

// Preliminary is the default imperfect model used for the
// "learned emulator without alignment" arm of Fig. 3.
var Preliminary = Noise{
	Seed:       42,
	DropState:  0.02,
	DropCheck:  0.05,
	WrongCode:  0.04,
	DropLink:   0.02,
	DropParent: 0.04,
	SyntaxErr:  0.25,
}

// source is what the hallucination model draws from.
type source interface {
	Float64() float64
	Intn(n int) int
}

// rng derives a deterministic stream for one resource so that
// re-prompting a single SM (or repairing it) does not perturb the
// draws of every other SM.
func (n Noise) rng(resource string, attempt int) *stream {
	h := int64(1469598103934665603)
	for _, c := range resource {
		h ^= int64(c)
		h *= 1099511628211
	}
	return &stream{seed: n.Seed ^ h ^ int64(attempt)*2654435761}
}

// decide is one Bernoulli draw.
func decide(r source, p float64) bool {
	if p <= 0 {
		return false
	}
	return r.Float64() < p
}

// genericCode is the fallback error code a sloppy generation substitutes
// for the documented one.
func genericCode(service string) string {
	switch service {
	case "dynamodb":
		return "ValidationException"
	case "network-firewall", "eks":
		return "InvalidRequestException"
	case "azure-network":
		return "InvalidRequestFormat"
	default:
		return "InvalidParameterValue"
	}
}
