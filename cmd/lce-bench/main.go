// Command lce-bench regenerates the paper's tables and figures and
// prints them:
//
//	lce-bench            # everything
//	lce-bench -table1 -fig3
//
// The serving path's timings live in the benchmark/ harness, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"lce/internal/eval"
)

func main() {
	selected := map[string]*bool{}
	for _, t := range eval.Tables {
		selected[t.Flag] = flag.Bool(t.Flag, false, t.Usage)
	}
	flag.Parse()
	want := map[string]bool{}
	for name, on := range selected {
		want[name] = *on
	}
	if err := eval.WriteTables(os.Stdout, want); err != nil {
		fmt.Fprintln(os.Stderr, "lce-bench:", err)
		os.Exit(1)
	}
}
