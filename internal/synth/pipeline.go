package synth

import (
	"fmt"
	"slices"
	"strings"

	"lce/internal/docs"
	"lce/internal/docs/wrangle"
	"lce/internal/spec"
)

// Decoding selects how the simulated model's output is kept inside the
// grammar (§4.2).
type Decoding int

const (
	// Constrained decoding builds the AST under the grammar directly —
	// syntactically invalid output is impossible by construction.
	Constrained Decoding = iota
	// Free decoding emits raw spec text which may be syntactically
	// mangled; the pipeline detects parse failures and re-prompts,
	// which is the paper's prototype configuration ("we enforce
	// syntactic checks in the interpreter and re-prompt in case of
	// issues"). Only a draw the noise model mangled is printed and
	// parsed: clean text would parse back to the AST it was printed
	// from (FuzzParseSM holds the round trip), so a clean draw keeps
	// the extracted AST.
	Free
)

// Options configures a synthesis run.
type Options struct {
	Noise    Noise
	Decoding Decoding
	// MaxRePrompts bounds the free-decoding retry loop per resource:
	// one prompt and at most MaxRePrompts re-prompts.
	MaxRePrompts int
}

// DefaultOptions is the configuration used throughout the evaluation:
// the preliminary noise model with free decoding, as in the paper's
// prototype.
func DefaultOptions() Options {
	return Options{Noise: Preliminary, Decoding: Free, MaxRePrompts: 8}
}

// Report records what happened during synthesis; the evaluation
// harness turns these into the decoding-ablation numbers.
type Report struct {
	Service string
	// SMs generated, and the total extracted grammar elements.
	SMCount int
	// RePrompts counts syntax-failure retries (free decoding only).
	RePrompts int
	// StubsPatched counts linker-synthesized internal transitions.
	StubsPatched int
	// StubsPruned counts cross-resource effects that could not be
	// linked (their target state was hallucinated away).
	StubsPruned int
	// Order is the dependency-ordered generation sequence.
	Order []string
}

// Synthesize runs the full §4.2 workflow over a rendered corpus:
// wrangle → dependency-ordered incremental extraction → specification
// linking → well-formedness check. The result is an executable
// service spec for interp.New.
func Synthesize(c docs.Corpus, opts Options) (*spec.Service, *Report, error) {
	brief, err := wrangle.Wrangle(c)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: documentation wrangling failed: %w", err)
	}
	return SynthesizeFromBrief(brief, opts)
}

// SynthesizeFromBrief runs extraction and linking over an
// already-wrangled brief. The alignment engine uses this entry point
// when re-reading documentation during repair.
func SynthesizeFromBrief(brief *docs.ServiceDoc, opts Options) (*spec.Service, *Report, error) {
	if opts.MaxRePrompts <= 0 {
		opts.MaxRePrompts = 8
	}
	rep := &Report{Service: brief.Service}

	// Resource-level dependency graph from ref-typed states and params.
	names := make([]string, 0, len(brief.Resources))
	deps := map[string][]string{}
	for _, rd := range brief.Resources {
		names = append(names, rd.Name)
		deps[rd.Name] = resourceDeps(rd)
	}
	rep.Order = dependencyOrder(names, deps)

	x := &extractor{doc: brief, noise: opts.Noise, service: brief.Service}
	svc := &spec.Service{Name: brief.Service}
	for _, name := range rep.Order {
		rd := brief.Resource(name)
		sm, rePrompts, err := generateSM(x, rd, opts)
		rep.RePrompts += rePrompts
		if err != nil {
			return nil, rep, err
		}
		svc.SMs = append(svc.SMs, sm)
	}
	rep.SMCount = len(svc.SMs)

	if err := svc.Index(); err != nil {
		return nil, rep, fmt.Errorf("synth: linking failed: %w", err)
	}
	patched, pruned, changed := link(svc)
	if err := svc.Reindex(changed...); err != nil {
		return nil, rep, fmt.Errorf("synth: linking failed: %w", err)
	}
	rep.StubsPatched = patched
	rep.StubsPruned = pruned

	// Targeted correction (§4.2): cascade hallucinated-away state
	// variables through the statements built on them until the spec
	// passes the well-formedness check.
	rep.StubsPruned += scrub(svc)

	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		return nil, rep, fmt.Errorf("synth: linked spec is not well-formed: %v (and %d more)", errs[0], len(errs)-1)
	}
	return svc, rep, nil
}

// generateSM produces one SM under the selected decoding regime and
// reports how many times it re-prompted: attempt 0 is the prompt, so
// MaxRePrompts bounds the attempts at MaxRePrompts+1.
func generateSM(x *extractor, rd *docs.ResourceDoc, opts Options) (*spec.SM, int, error) {
	for attempt := 0; ; attempt++ {
		sm := x.extractSM(rd, attempt)
		if opts.Decoding == Constrained {
			// The AST is the output: grammar conformance by
			// construction.
			return sm, attempt, nil
		}
		// Free decoding: the model emits text, which may be mangled.
		// Unmangled text parses back to the AST it was printed from,
		// so only a mangled draw is printed and parsed.
		r := opts.Noise.rng(rd.Name+"/syntax", attempt)
		if !decide(r, opts.Noise.SyntaxErr) {
			return sm, attempt, nil
		}
		parsed, err := spec.ParseSM(mangle(spec.PrintSM(sm), r))
		if err == nil {
			return parsed, attempt, nil
		}
		if attempt == opts.MaxRePrompts {
			return nil, attempt, fmt.Errorf("synth: %s: free decoding failed after %d re-prompts: %w", rd.Name, attempt, err)
		}
	}
}

// mangle injects a realistic syntax error into emitted spec text:
// a dropped delimiter.
func mangle(text string, r source) string {
	candidates := []byte{')', '}', '('}
	c := candidates[r.Intn(len(candidates))]
	positions := []int{}
	for i := 0; i < len(text); i++ {
		if text[i] == c {
			positions = append(positions, i)
		}
	}
	if len(positions) == 0 {
		return "~" + text
	}
	p := positions[r.Intn(len(positions))]
	return text[:p] + text[p+1:]
}

// resourceDeps lists the SMs a resource's brief references.
func resourceDeps(rd *docs.ResourceDoc) []string {
	seen := map[string]bool{}
	add := func(t spec.Type) {
		if t.Kind == spec.TRef && t.Ref != rd.Name {
			seen[t.Ref] = true
		}
		if t.Kind == spec.TList && t.Elem != nil && t.Elem.Kind == spec.TRef && t.Elem.Ref != rd.Name {
			seen[t.Elem.Ref] = true
		}
	}
	for _, sv := range rd.States {
		add(sv.Type)
	}
	for _, a := range rd.APIs {
		for _, p := range a.Params {
			add(p.Type)
		}
	}
	if rd.Parent != "" && rd.Parent != rd.Name {
		seen[rd.Parent] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RepairSM re-extracts the named SMs noise-free from the brief,
// splices them into the service and re-links. This is the alignment
// engine's repair primitive: "re-reading the documentation" for the
// implicated resources (§4.3).
//
// It returns the SMs it touched, sorted: the re-extracted ones, the
// ones that lost linker-synthesized transitions targeting them, and
// the ones the linker patched or pruned. Only those are re-indexed and
// re-checked (spec.Recheck), so the rest of the service must be as its
// last check found it, which synthesis and earlier repairs leave it.
// When the repaired spec is not well-formed, the error wraps the first
// *spec.CheckError and the service keeps the repair.
func RepairSM(svc *spec.Service, brief *docs.ServiceDoc, names ...string) ([]string, error) {
	fresh := make([]*spec.SM, len(names))
	x := &extractor{doc: brief, noise: Perfect, service: brief.Service}
	for i, name := range names {
		rd := brief.Resource(name)
		if rd == nil {
			return nil, fmt.Errorf("synth: no documentation for SM %q", name)
		}
		fresh[i] = x.extractSM(rd, 0)
	}
	var touched []string
	for _, sm := range fresh {
		i := slices.IndexFunc(svc.SMs, func(old *spec.SM) bool { return old.Name == sm.Name })
		if i >= 0 {
			svc.SMs[i] = sm
		} else {
			svc.SMs = append(svc.SMs, sm)
		}
		touched = append(touched, sm.Name)
	}
	// Drop previously linker-synthesized internal transitions that
	// target a replaced SM: they will be regenerated as needed, and
	// stale setters for renamed states must not linger.
	for _, sm := range svc.SMs {
		kept := sm.Transitions[:0]
		for _, tr := range sm.Transitions {
			if tr.Internal && slices.ContainsFunc(names, func(n string) bool { return strings.Contains(tr.Name, "_"+n+"_") }) {
				continue
			}
			kept = append(kept, tr)
		}
		if len(kept) < len(sm.Transitions) {
			touched = append(touched, sm.Name)
		}
		sm.Transitions = kept
	}
	if err := svc.Reindex(touched...); err != nil {
		return touched, err
	}
	_, _, changed := link(svc)
	if err := svc.Reindex(changed...); err != nil {
		return touched, err
	}
	touched = append(touched, changed...)
	slices.Sort(touched)
	touched = slices.Compact(touched)
	if errs := spec.Recheck(svc, spec.Strict, touched...); len(errs) > 0 {
		return touched, fmt.Errorf("synth: repaired spec is not well-formed: %w", errs[0])
	}
	return touched, nil
}

// SetAssertCode patches the error code of the assert in the given
// transition whose current code is oldCode, and returns the SM it
// changed ("" when no assert matched). The alignment engine uses it
// when a divergence is attributed to the documentation itself: the
// observed cloud code overrides the documented one (§4.3 "learn how
// the cloud produces error logs"). An error code is nothing the
// checker reads, so the SM's check record stays valid.
func SetAssertCode(svc *spec.Service, action, oldCode, newCode string) string {
	sm, tr, ok := svc.Action(action)
	if !ok {
		return ""
	}
	found := false
	walkStmts(tr.Body, func(s spec.Stmt) {
		if a, ok := s.(*spec.AssertStmt); ok && a.Code == oldCode && !found {
			a.Code = newCode
			found = true
		}
	})
	if !found {
		return ""
	}
	return sm.Name
}
