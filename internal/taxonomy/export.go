package taxonomy

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Exporters for releasing the taxonomy as a resource, matching how the
// authors published CN-Probase (a downloadable edge list plus a
// browsable graph).

// WriteTSV writes the edge list as tab-separated
// hyponym/hypernym/sources/count lines, the conventional release format
// for taxonomy resources.
func (t *Taxonomy) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "hyponym\thypernym\tsources\tcount"); err != nil {
		return fmt.Errorf("taxonomy: write tsv header: %w", err)
	}
	for _, e := range t.Edges() {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%d\n", e.Hypo, e.Hyper, e.Sources, e.Count); err != nil {
			return fmt.Errorf("taxonomy: write tsv edge: %w", err)
		}
	}
	return bw.Flush()
}

// WriteDOT writes a GraphViz digraph of the concept level: subconcept
// edges plus, for each concept, its hyponym count as a label. Entity
// nodes are omitted (15M nodes do not render); the concept graph is
// what the paper's Figure 2 sketches.
func (t *Taxonomy) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "digraph taxonomy {"); err != nil {
		return fmt.Errorf("taxonomy: write dot: %w", err)
	}
	fmt.Fprintln(bw, `  rankdir=BT;`)
	fmt.Fprintln(bw, `  node [shape=box, fontname="sans"];`)
	for _, n := range t.Concepts() {
		fmt.Fprintf(bw, "  %q [label=\"%s\\n(%d)\"];\n", n, escapeDOT(n), t.HyponymCount(n))
	}
	for _, e := range t.Edges() {
		if t.Kind(e.Hypo) != KindConcept || t.Kind(e.Hyper) != KindConcept {
			continue
		}
		fmt.Fprintf(bw, "  %q -> %q;\n", e.Hypo, e.Hyper)
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return fmt.Errorf("taxonomy: write dot: %w", err)
	}
	return bw.Flush()
}

func escapeDOT(s string) string {
	return strings.NewReplacer(`"`, `\"`, `\`, `\\`).Replace(s)
}
