package align_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lce"
	"lce/internal/align"
	"lce/internal/cloudapi"
	"lce/internal/fault"
	"lce/internal/spec"
	"lce/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the clean 1-worker runs")

// goldenServices are the four learnable services the default loop aligns.
var goldenServices = []string{"ec2", "dynamodb", "network-firewall", "azure-network"}

// alignCase runs the default alignment loop for one service: clean, or
// against fault.Uniform(0.10, 7) behind a retry policy whose attempt
// budget outlasts the injector's consecutive-fault cap.
func alignCase(t testing.TB, service string, workers int, chaos bool) *lce.AlignResult {
	t.Helper()
	cfg := lce.AlignConfig{Workers: workers}
	if chaos {
		faults := lce.UniformFaults(0.10, 7)
		cfg.Faults = &faults
		cfg.Retry = &lce.RetryPolicy{MaxAttempts: fault.DefaultMaxConsecutive + 2, Seed: 7}
	}
	res, err := lce.Align(service, lce.DefaultOptions(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", service, err)
	}
	return res
}

// renderGolden is the byte form the goldens hold: the final spec, then
// every round rendered by value (outcomes included, never pointers),
// then the deterministic run counts.
func renderGolden(res *align.Result) string {
	var b strings.Builder
	b.WriteString(spec.Print(res.Final.Spec()))
	for _, r := range res.Rounds {
		fmt.Fprintf(&b, "round %d: %d/%d aligned, %d semantic, %d exhausted-transient\n",
			r.Round, r.Aligned, r.Total, r.Semantic, r.ExhaustedTransient)
		for _, d := range r.Divergence {
			fmt.Fprintf(&b, "  divergence step %d %s [%s]: %s\n", d.Index, d.Action, d.Kind, d.Detail)
			fmt.Fprintf(&b, "    emulator %s\n", renderOutcome(d.Subject))
			fmt.Fprintf(&b, "    oracle   %s\n", renderOutcome(d.Against))
		}
		for _, rep := range r.Repairs {
			fmt.Fprintf(&b, "  repair %s %s: %s\n", rep.Kind, rep.Target, rep.Reason)
		}
	}
	fmt.Fprintf(&b, "converged=%v comparisons=%d divergent=%d repairs=%d rounds=%d\n",
		res.Converged, res.Stats.TracesCompared, res.Stats.Divergent, res.Stats.Repairs, res.Stats.Rounds)
	return b.String()
}

func renderOutcome(o *trace.Outcome) string {
	if o == nil {
		return "none"
	}
	return fmt.Sprintf("ok=%v broken=%v code=%q message=%q result=%s",
		o.OK, o.Broken, o.Code, o.Message, cloudapi.Map(o.Result).String())
}

// TestAlignGoldens holds the loop to files written at an earlier
// commit: for every learnable service, the final spec and every round
// must match one file byte for byte — clean and under 10% chaos with
// covering retries, at 1 and at 8 workers. Regenerate only for an
// intended change in what the loop learns:
//
//	go test ./internal/align/ -run TestAlignGoldens -update
func TestAlignGoldens(t *testing.T) {
	for _, service := range goldenServices {
		path := filepath.Join("testdata", "golden", service+".txt")
		for _, mode := range []string{"clean", "chaos"} {
			for _, workers := range []int{1, 8} {
				res := alignCase(t, service, workers, mode == "chaos")
				if mode == "chaos" && res.Stats.TransientFaults == 0 {
					t.Errorf("%s @%dw: chaos injected no faults — the chaos case is vacuous", service, workers)
				}
				got := renderGolden(res)
				if *update && mode == "clean" && workers == 1 {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s %s @%dw differs from %s:\n%s", service, mode, workers, path, firstDifference(string(want), got))
				}
			}
		}
	}
}

// firstDifference names the first line where two renderings part.
func firstDifference(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d", len(w), len(g))
}
