// Command lce-synth runs the documentation→specification synthesis
// pipeline and prints the generated SM specification:
//
//	lce-synth -service network-firewall            # faithful extraction
//	lce-synth -service ec2 -noisy -sm Vpc          # one noisy SM
//	lce-synth -service ec2 -stats                  # complexity metrics
package main

import (
	"flag"
	"fmt"
	"os"

	"lce"
	"lce/internal/checks"
	"lce/internal/spec"
	"lce/internal/synth"
)

func main() {
	var (
		service  = flag.String("service", "ec2", "service to synthesize")
		noisy    = flag.Bool("noisy", false, "apply the preliminary hallucination model")
		smName   = flag.String("sm", "", "print only the named SM")
		stats    = flag.Bool("stats", false, "print complexity metrics instead of the spec")
		decoding = flag.String("decoding", "constrained", "decoding mode: constrained | free")
	)
	flag.Parse()

	c, err := lce.Documentation(*service)
	if err != nil {
		fail(err)
	}
	opts := synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained}
	if *noisy {
		opts.Noise = synth.Preliminary
	}
	if *decoding == "free" {
		opts.Decoding = synth.Free
		opts.MaxRePrompts = 16
	}
	svc, rep, err := synth.Synthesize(c, opts)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "synthesized %d SMs for %s (order: %v; re-prompts: %d; stubs patched: %d, pruned: %d)\n",
		rep.SMCount, rep.Service, rep.Order, rep.RePrompts, rep.StubsPatched, rep.StubsPruned)
	if findings := checks.Run(svc); len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "consistency: %v\n", f)
		}
	}

	switch {
	case *stats:
		g := checks.Graph(svc)
		fmt.Printf("service %s: %d SMs, %d dependency edges (density %.3f), %d states, %d transitions, %d checks, containment depth %d\n",
			g.Service, g.Nodes, g.Edges, g.EdgeDensity, g.States, g.Transitions, g.Checks, g.MaxDepth)
		for _, cx := range checks.Complexities(svc) {
			fmt.Printf("  %-28s states=%-3d transitions=%-3d complexity=%d\n", cx.SM, cx.States, cx.Transitions, cx.Total())
		}
		for _, ap := range checks.AntiPatterns(svc) {
			fmt.Printf("  anti-pattern [%s] %s.%s: %s\n", ap.Kind, ap.SM, ap.Action, ap.Detail)
		}
	case *smName != "":
		sm := svc.SM(*smName)
		if sm == nil {
			fail(fmt.Errorf("no SM named %q", *smName))
		}
		fmt.Print(spec.PrintSM(sm))
	default:
		fmt.Print(spec.Print(svc))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lce-synth:", err)
	os.Exit(1)
}
