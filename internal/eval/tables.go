package eval

import (
	"fmt"
	"io"
	"strings"
)

// A Table is one section of the evaluation output: the lce-bench flag
// that selects it, that flag's usage line, and how the section renders.
type Table struct {
	Flag  string
	Usage string
	write func(*strings.Builder) error
}

// Tables lists every section in the order WriteTables prints them.
var Tables = []Table{
	{"table1", "Table 1: manual baseline coverage", writeTable1},
	{"fig3", "Fig. 3: accuracy across scenarios", writeFig3},
	{"fig4", "Fig. 4: CDF of SM complexity", writeFig4},
	{"basic", "§5 basic functionality", writeBasic},
	{"vsmanual", "§5 versus manual engineering", writeVersusManual},
	{"d2c", "§5 D2C error taxonomy", writeD2CTaxonomy},
	{"multicloud", "§5 multi-cloud", writeMultiCloud},
	{"converge", "A1: alignment convergence", writeConvergence},
	{"decoding", "A2: decoding ablation", writeDecoding},
	{"graphs", "A3: complexity graphs and anti-patterns", writeGraphs},
}

// WriteTables regenerates the sections whose flags are set in selected
// and prints them to w in the paper's order; with nothing selected it
// prints every section. It stops at the first section that fails.
func WriteTables(w io.Writer, selected map[string]bool) error {
	all := true
	for _, t := range Tables {
		all = all && !selected[t.Flag]
	}
	for _, t := range Tables {
		if !all && !selected[t.Flag] {
			continue
		}
		var b strings.Builder
		if err := t.write(&b); err != nil {
			return err
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeTable1(w *strings.Builder) error {
	fmt.Fprintln(w, FormatTable1(Table1()))
	return nil
}

func writeFig3(w *strings.Builder) error {
	rows, err := Fig3()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatFig3(rows))
	return nil
}

func writeFig4(w *strings.Builder) error {
	series, err := Fig4()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatFig4(series))
	return nil
}

func writeBasic(w *strings.Builder) error {
	res, err := BasicFunctionality()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Basic functionality: synthesized full EC2 spec in %v; trace aligned with the cloud: %v\n\n",
		res.SynthesisTime, res.Aligned)
	return nil
}

func writeVersusManual(w *strings.Builder) error {
	rows, err := VersusManual()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatVersusManual(rows))
	return nil
}

func writeD2CTaxonomy(w *strings.Builder) error {
	rows, err := D2CTaxonomy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Direct-to-code error taxonomy over the Fig. 3 workload:")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s: %d\n", r.Category, r.Count)
		for _, e := range r.Examples {
			fmt.Fprintf(w, "    e.g. %s\n", e)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func writeMultiCloud(w *strings.Builder) error {
	rows, err := MultiCloud()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Multi-cloud (Azure backend):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %d/%d traces aligned\n", r.System, r.Aligned, r.Total)
	}
	fmt.Fprintln(w)
	return nil
}

func writeConvergence(w *strings.Builder) error {
	rows, err := AlignmentConvergence()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Alignment convergence (EC2, preliminary noise):")
	for _, r := range rows {
		fmt.Fprintf(w, "  round %d: %d/%d aligned (%d repairs)\n", r.Round, r.Aligned, r.Total, r.Repairs)
	}
	fmt.Fprintln(w)
	return nil
}

func writeDecoding(w *strings.Builder) error {
	rows, err := DecodingAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Decoding ablation (EC2 corpus):")
	for _, r := range rows {
		fmt.Fprintf(w, "  syntax-noise %.0f%%: free decoding %d re-prompts, constrained %d\n",
			100*r.SyntaxNoise, r.FreeRePrompts, r.ConstrainedRePrompts)
	}
	fmt.Fprintln(w)
	return nil
}

func writeGraphs(w *strings.Builder) error {
	stats, anti, err := GraphReport()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Specification graph metrics (§4.4):")
	for _, s := range stats {
		fmt.Fprintf(w, "  %-18s nodes=%-3d edges=%-3d density=%.3f states=%-4d transitions=%-4d checks=%-4d depth=%d\n",
			s.Service, s.Nodes, s.Edges, s.EdgeDensity, s.States, s.Transitions, s.Checks, s.MaxDepth)
	}
	fmt.Fprintf(w, "  anti-patterns detected: %d\n", len(anti))
	for _, ap := range anti {
		fmt.Fprintf(w, "    [%s] %s.%s: %s\n", ap.Kind, ap.SM, ap.Action, ap.Detail)
	}
	return nil
}
