package synth

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/draft-<service>.txt from this build")

// TestDraftGoldens holds the unaligned drafts the default options
// produce — noise, free decoding and its re-prompts, linking and
// scrubbing — to files written at an earlier commit, byte for byte.
// Regenerate only for an intended change in what synthesis emits:
//
//	go test ./internal/synth/ -run TestDraftGoldens -update
func TestDraftGoldens(t *testing.T) {
	briefs := []struct {
		service string
		brief   func() *docs.ServiceDoc
	}{
		{"ec2", corpus.EC2},
		{"dynamodb", corpus.DynamoDB},
		{"network-firewall", corpus.NetworkFirewall},
		{"azure-network", corpus.Azure},
	}
	for _, c := range briefs {
		svc, rep, err := SynthesizeFromBrief(c.brief(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.service, err)
		}
		got := spec.Print(svc) + fmt.Sprintf("re-prompts=%d stubs-patched=%d stubs-pruned=%d\n",
			rep.RePrompts, rep.StubsPatched, rep.StubsPruned)
		path := filepath.Join("testdata", "draft-"+c.service+".txt")
		if *update {
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
			t.Errorf("%s draft differs from %s:\n%s", c.service, path, firstDifference(string(want), got))
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
