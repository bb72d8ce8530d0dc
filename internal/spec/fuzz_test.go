package spec_test

import (
	"testing"

	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/spec"
	"lce/internal/synth"
)

// FuzzParseSM holds the printer to the parser on hostile input: for
// any source that parses, Print∘Parse is a fixpoint — the canonical
// text re-parses, and prints back byte for byte. Run it with
//
//	go test -run '^$' -fuzz FuzzParseSM -fuzztime 5s ./internal/spec/
func FuzzParseSM(f *testing.F) {
	f.Add(spec.ToySource)
	f.Add(`service s { sm A { doc "tab\there, quote \" and é" idprefix "a" states { n: int } transition CreateA(opt v: str = "x\\y") create { assert(!(v == "") && -1 < 2) error "Bad" "msg" return(id, id(self)) } } }`)
	f.Add(`service s { sm B { transition DescribeBs() describe { foreach b in describeAll("B") { if (b.x != nil) { } else { write(x, 1 + 2 - 3) } } } } }`)
	f.Add("service s { sm C { doc \"raw \r and \xff\" } }")
	// The four learnable services as the faithful extraction prints
	// them, hyphenated names included.
	for _, brief := range []func() *docs.ServiceDoc{corpus.EC2, corpus.DynamoDB, corpus.NetworkFirewall, corpus.Azure} {
		svc, _, err := synth.SynthesizeFromBrief(brief(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spec.Print(svc))
	}
	f.Fuzz(func(t *testing.T, src string) {
		svc, err := spec.Parse(src)
		if err != nil {
			return
		}
		text := spec.Print(svc)
		again, err := spec.Parse(text)
		if err != nil {
			t.Fatalf("canonical text does not re-parse: %v\n--- source\n%q\n--- printed\n%s", err, src, text)
		}
		if back := spec.Print(again); back != text {
			t.Fatalf("Print∘Parse is not a fixpoint:\n--- first\n%s\n--- second\n%s", text, back)
		}
	})
}
