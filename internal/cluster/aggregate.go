package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"lce/internal/cloudapi"
)

// Fleet aggregation: the router serves /metrics and /v2/sessions
// itself, fanning the request out to every live node and merging the
// answers, so one scrape (or one curl) sees the whole fleet.

// metricFamily is one metric's merged samples across the fleet.
type metricFamily struct {
	name    string
	help    string
	typ     string
	samples []string // sample lines, node label already injected
}

// metrics aggregates every live node's Prometheus text exposition
// into one: each family's HELP/TYPE header appears once (first seen
// wins — the fleet is homogeneous), and every sample line gains a
// node="<name>" label so per-node series stay distinguishable after
// the merge.
func (rt *Router) metrics(w http.ResponseWriter, r *http.Request) {
	nodes := rt.liveNodes()
	bodies := make([][]byte, len(nodes))
	var wg sync.WaitGroup
	for i, st := range nodes {
		wg.Add(1)
		go func(i int, st *nodeState) {
			defer wg.Done()
			resp, err := rt.client.Get(st.url + "/metrics")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			}
		}(i, st)
	}
	wg.Wait()

	var order []string
	families := make(map[string]*metricFamily)
	for i, body := range bodies {
		if body == nil {
			continue
		}
		mergeExposition(families, &order, nodes[i].name, body)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var out bytes.Buffer
	for _, name := range order {
		f := families[name]
		if f.help != "" {
			fmt.Fprintf(&out, "# HELP %s %s\n", f.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(&out, "# TYPE %s %s\n", f.name, f.typ)
		}
		for _, s := range f.samples {
			out.WriteString(s)
			out.WriteByte('\n')
		}
	}
	_, _ = w.Write(out.Bytes())
}

// mergeExposition folds one node's exposition text into the family
// map, injecting the node label into each sample.
func mergeExposition(families map[string]*metricFamily, order *[]string, node string, body []byte) {
	get := func(name string) *metricFamily {
		f := families[name]
		if f == nil {
			f = &metricFamily{name: name}
			families[name] = f
			*order = append(*order, name)
		}
		return f
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			if f := get(name); f.help == "" {
				f.help = help
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := line[len("# TYPE "):]
			name, typ, _ := strings.Cut(rest, " ")
			if f := get(name); f.typ == "" {
				f.typ = typ
			}
		case strings.HasPrefix(line, "#"):
			// Other comments don't survive the merge.
		default:
			name := sampleFamily(line)
			if name == "" {
				continue
			}
			get(name).samples = append(get(name).samples, injectLabel(line, node))
		}
	}
}

// sampleFamily maps a sample line to its family name: the metric name
// up to '{' or space, with histogram/summary suffixes folded into the
// base family (lce_x_bucket belongs to family lce_x).
func sampleFamily(line string) string {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return ""
	}
	name := line[:end]
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return name[:len(name)-len(suffix)]
		}
	}
	return name
}

// injectLabel adds node="<name>" as the first label of a sample line.
func injectLabel(line, node string) string {
	if i := strings.IndexByte(line, '{'); i >= 0 && i+1 < len(line) {
		if line[i+1] == '}' { // empty label set: name{} value
			return line[:i+1] + `node="` + node + `"` + line[i+1:]
		}
		return line[:i+1] + `node="` + node + `",` + line[i+1:]
	}
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i] + `{node="` + node + `"}` + line[i:]
	}
	return line
}

// sessions aggregates GET /v2/sessions fleet-wide: the per-node
// answers verbatim under "nodes" (each already carries its node
// field), and the additive counters summed at the top level, so
// existing tooling that reads .sessions or .spills keeps working
// against a router.
func (rt *Router) sessions(w http.ResponseWriter, r *http.Request) {
	nodes := rt.liveNodes()
	perNode := make([]map[string]any, len(nodes))
	var wg sync.WaitGroup
	for i, st := range nodes {
		wg.Add(1)
		go func(i int, st *nodeState) {
			defer wg.Done()
			resp, err := rt.client.Get(st.url + "/v2/sessions")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var m map[string]any
			if decodeJSONBody(resp.Body, &m) == nil {
				perNode[i] = m
			}
		}(i, st)
	}
	wg.Wait()

	totals := map[string]float64{}
	sum := func(m map[string]any, key string) {
		if v, ok := m[key].(float64); ok {
			totals[key] += v
		}
	}
	var answered []map[string]any
	for _, m := range perNode {
		if m == nil {
			continue
		}
		for _, key := range []string{"sessions", "hits", "misses", "idleEvictions", "capacityEvictions", "spilled", "spills"} {
			sum(m, key)
		}
		answered = append(answered, m)
	}
	if len(answered) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, rt.requestID(r), cloudapi.CodeServiceUnavailable, "no node answered /v2/sessions")
		return
	}
	out := map[string]any{
		"cluster": true,
		"nodes":   answered,
	}
	for k, v := range totals {
		out[k] = v
	}
	hits, misses := totals["hits"], totals["misses"]
	if hits+misses > 0 {
		out["hitRate"] = hits / (hits + misses)
	} else {
		out["hitRate"] = 0.0
	}
	rt.writeJSON(w, rt.requestID(r), http.StatusOK, out)
}

func decodeJSONBody(r io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, 16<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
