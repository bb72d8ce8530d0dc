package obsv

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the exposition linter behind `lce-tracecheck -metrics`:
// an outside-in validator for the text this registry serves on
// /metrics, so CI catches a formatting regression in the writer (or a
// label value that breaks escaping) the way a real scraper would.
//
// Checked invariants:
//
//   - every line is a TYPE/HELP/EOF comment or a well-formed sample
//   - metric and label names match the Prometheus grammar
//   - label values use only the \\ \" \n escapes and close their quotes
//   - no duplicate label keys within a sample, no duplicate series
//   - every series of a family carries the same set of label names
//     (le aside on _bucket lines), so summing a family over any label
//     counts each event once
//   - TYPE precedes its samples, each family is declared once, and
//     families appear in sorted order (the registry's determinism
//     contract — scrapes must be diffable)
//   - within a family, series appear in sorted label order; histogram
//     bucket counts are cumulative and the +Inf bucket equals _count
//   - exemplars (`# {trace_id="..."} value` suffixes) appear only on
//     bucket lines and parse cleanly
//   - `# EOF`, when present, is the final line (OpenMetrics)

// LintStats summarizes a validated exposition.
type LintStats struct {
	Families  int
	Series    int
	Samples   int
	Exemplars int
	// OpenMetrics reports whether the body ended with `# EOF`.
	OpenMetrics bool
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// exposKinds are the TYPE values the registry emits.
var exposKinds = map[string]bool{"counter": true, "gauge": true, "histogram": true}

// LintExposition validates a Prometheus/OpenMetrics text exposition
// read from r. It returns the first violation found, annotated with
// its 1-based line number.
func LintExposition(r io.Reader) (LintStats, error) {
	var st LintStats
	l := &linter{seen: map[string]bool{}, hist: map[string]bool{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if err := l.line(line, &st); err != nil {
			return st, fmt.Errorf("line %d: %w (%q)", n, err, line)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if err := l.finish(&st); err != nil {
		return st, fmt.Errorf("line %d: %w", n, err)
	}
	return st, nil
}

type linter struct {
	family     string // current TYPE family ("" before the first)
	familyKind string
	lastFamily string          // for sorted-family-order check
	lastSeries string          // labels of the previous sample in this family
	labelNames string          // label-name set of this family's first sample, "" before it
	seen       map[string]bool // full series (name+labels) for duplicate check
	hist       map[string]bool // histogram families

	// in-flight histogram series state
	histSeries string // labels (minus le) of the bucket run being read
	histCum    int64
	histInf    int64
	histHasInf bool
	sawEOF     bool
}

func (l *linter) line(line string, st *LintStats) error {
	if l.sawEOF {
		return fmt.Errorf("content after # EOF")
	}
	switch {
	case line == "# EOF":
		l.sawEOF = true
		st.OpenMetrics = true
		return l.closeHistSeries()
	case strings.HasPrefix(line, "# TYPE "):
		return l.typeLine(line, st)
	case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "#"):
		return nil
	case strings.TrimSpace(line) == "":
		return fmt.Errorf("blank line")
	default:
		return l.sample(line, st)
	}
}

func (l *linter) typeLine(line string, st *LintStats) error {
	if err := l.closeHistSeries(); err != nil {
		return err
	}
	f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
	if len(f) != 2 {
		return fmt.Errorf("malformed TYPE")
	}
	name, kind := f[0], f[1]
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if !exposKinds[kind] {
		return fmt.Errorf("unknown TYPE kind %q", kind)
	}
	if name <= l.lastFamily {
		return fmt.Errorf("family %q out of order after %q (deterministic ordering broken)", name, l.lastFamily)
	}
	l.family, l.familyKind, l.lastFamily, l.lastSeries, l.labelNames = name, kind, name, "", ""
	if kind == "histogram" {
		l.hist[name] = true
	}
	st.Families++
	return nil
}

// sample validates one sample line:
//
//	name{k="v",...} value [# {trace_id="..."} value]
func (l *linter) sample(line string, st *LintStats) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels, rest, err := splitLabels(rest)
	if err != nil {
		return err
	}
	value, exemplar, err := splitValue(rest)
	if err != nil {
		return err
	}

	base, suffix := name, ""
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, sfx); ok && l.hist[b] {
			base, suffix = b, sfx
			break
		}
	}
	if l.family == "" {
		return fmt.Errorf("sample before any TYPE line")
	}
	if base != l.family {
		return fmt.Errorf("sample %q outside its family (current TYPE is %q)", name, l.family)
	}
	if (l.familyKind == "histogram") != (suffix != "") {
		return fmt.Errorf("sample %q does not match TYPE %s", name, l.familyKind)
	}

	keys, kv, err := parseLabels(labels)
	if err != nil {
		return err
	}
	if err := l.checkLabelNames(keys, suffix == "_bucket"); err != nil {
		return err
	}
	if l.seen[name+labels] && suffix != "_bucket" {
		return fmt.Errorf("duplicate series %s%s", name, labels)
	}
	l.seen[name+labels] = true
	st.Samples++

	if exemplar != "" {
		if suffix != "_bucket" {
			return fmt.Errorf("exemplar on non-bucket sample %q", name)
		}
		if err := checkExemplar(exemplar); err != nil {
			return err
		}
		st.Exemplars++
	}

	switch suffix {
	case "_bucket":
		return l.bucket(kv, labels, value, st)
	case "_count":
		cnt, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("non-integer _count %q", value)
		}
		if l.histHasInf && cnt != l.histInf {
			return fmt.Errorf("_count %d != +Inf bucket %d", cnt, l.histInf)
		}
		return l.closeHistSeries()
	case "_sum":
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("invalid _sum value %q", value)
		}
		return nil
	default:
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("invalid sample value %q", value)
		}
		// Deterministic series order within plain families.
		if labels <= l.lastSeries && l.lastSeries != "" {
			return fmt.Errorf("series %s out of order after %s", labels, l.lastSeries)
		}
		l.lastSeries = labels
		st.Series++
		return nil
	}
}

// checkLabelNames holds every series of the current family to the
// label-name set of its first sample. A family whose series disagree —
// some {route}, some {service,code} — counts each event once per
// schema, so any sum over it double-counts.
func (l *linter) checkLabelNames(keys []string, bucket bool) error {
	names := make([]string, 0, len(keys))
	for _, k := range keys {
		if !(bucket && k == "le") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	set := "{" + strings.Join(names, ",") + "}"
	if l.labelNames == "" {
		l.labelNames = set
	} else if set != l.labelNames {
		return fmt.Errorf("family %q mixes label sets %s and %s", l.family, l.labelNames, set)
	}
	return nil
}

// bucket tracks one histogram series' cumulative bucket run.
func (l *linter) bucket(kv map[string]string, labels, value string, st *LintStats) error {
	le, ok := kv["le"]
	if !ok {
		return fmt.Errorf("_bucket sample without le label")
	}
	if le != "+Inf" {
		if _, err := strconv.ParseFloat(le, 64); err != nil {
			return fmt.Errorf("invalid le %q", le)
		}
	}
	cnt, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return fmt.Errorf("non-integer bucket count %q", value)
	}
	// Identify the series by its labels minus le (the registry appends
	// le last).
	series := "{}"
	if i := strings.LastIndex(labels, ",le="); i >= 0 {
		series = labels[:i] + "}"
	}
	if series != l.histSeries {
		if err := l.closeHistSeries(); err != nil {
			return err
		}
		l.histSeries = series
		st.Series++
	}
	if cnt < l.histCum {
		return fmt.Errorf("bucket counts not cumulative (le=%q: %d < %d)", le, cnt, l.histCum)
	}
	l.histCum = cnt
	if le == "+Inf" {
		l.histInf, l.histHasInf = cnt, true
	}
	return nil
}

// closeHistSeries ends the in-flight bucket run; a run that never saw
// +Inf is malformed.
func (l *linter) closeHistSeries() error {
	if l.histSeries != "" && !l.histHasInf {
		return fmt.Errorf("histogram series %s has no +Inf bucket", l.histSeries)
	}
	l.histSeries, l.histCum, l.histInf, l.histHasInf = "", 0, 0, false
	return nil
}

func (l *linter) finish(st *LintStats) error {
	return l.closeHistSeries()
}

// splitName peels the metric name off a sample line.
func splitName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("sample without value")
	}
	name = line[:i]
	if !metricNameRe.MatchString(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// splitLabels peels a balanced {..} label block (possibly absent) off
// the front of rest, honouring escapes inside quoted values.
func splitLabels(rest string) (labels, after string, err error) {
	if !strings.HasPrefix(rest, "{") {
		return "", rest, nil
	}
	inQuote, esc := false, false
	for i := 1; i < len(rest); i++ {
		c := rest[i]
		switch {
		case esc:
			esc = false
		case c == '\\' && inQuote:
			esc = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return rest[:i+1], rest[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label block")
}

// parseLabels validates the block and returns the sorted key list and
// the unescaped key→value map.
func parseLabels(block string) ([]string, map[string]string, error) {
	kv := map[string]string{}
	if block == "" {
		return nil, kv, nil
	}
	body := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	var keys []string
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, nil, fmt.Errorf("label without value in %q", block)
		}
		key := body[:eq]
		if !labelNameRe.MatchString(key) {
			return nil, nil, fmt.Errorf("invalid label name %q", key)
		}
		if _, dup := kv[key]; dup {
			return nil, nil, fmt.Errorf("duplicate label %q", key)
		}
		body = body[eq+1:]
		val, rest, err := unquoteLabelValue(body)
		if err != nil {
			return nil, nil, fmt.Errorf("label %q: %w", key, err)
		}
		kv[key] = val
		keys = append(keys, key)
		body = rest
		if strings.HasPrefix(body, ",") {
			body = body[1:]
			if body == "" {
				return nil, nil, fmt.Errorf("trailing comma in %q", block)
			}
		} else if body != "" {
			return nil, nil, fmt.Errorf("junk after label value in %q", block)
		}
	}
	return keys, kv, nil
}

// unquoteLabelValue consumes one quoted label value, allowing exactly
// the \\ \" \n escapes the exposition format defines.
func unquoteLabelValue(s string) (val, rest string, err error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("unquoted value")
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated value")
}

// splitValue separates the sample value from an optional exemplar
// suffix (` # {...} value`).
func splitValue(rest string) (value, exemplar string, err error) {
	rest = strings.TrimPrefix(rest, " ")
	if i := strings.Index(rest, " # "); i >= 0 {
		return rest[:i], rest[i+3:], nil
	}
	if rest == "" {
		return "", "", fmt.Errorf("sample without value")
	}
	return rest, "", nil
}

// checkExemplar validates an OpenMetrics exemplar body:
// `{trace_id="..."} value`.
func checkExemplar(ex string) error {
	labels, after, err := splitLabels(ex)
	if err != nil || labels == "" {
		return fmt.Errorf("malformed exemplar %q", ex)
	}
	keys, kv, err := parseLabels(labels)
	if err != nil {
		return fmt.Errorf("exemplar: %w", err)
	}
	if len(keys) != 1 || keys[0] != "trace_id" || kv["trace_id"] == "" {
		return fmt.Errorf("exemplar must carry exactly trace_id, got %q", ex)
	}
	after = strings.TrimPrefix(after, " ")
	if _, err := strconv.ParseFloat(after, 64); err != nil {
		return fmt.Errorf("invalid exemplar value %q", after)
	}
	return nil
}
