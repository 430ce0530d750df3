package poset

import (
	"fmt"
	"strings"
)

// DOTNode describes how one poset element renders in Graphviz output.
type DOTNode struct {
	// Label is the node text.
	Label string
	// Shade in [0,1] maps to the fill intensity — Figure 8 colors nodes
	// by performance, black being the fastest.
	Shade float64
	// Star marks the safest-under-budget elements (drawn with a
	// distinct border, like Figure 8's stars).
	Star bool
	// Pruned marks nodes excluded by the performance budget (Figure 5's
	// gray nodes).
	Pruned bool
}

// DOT renders a Hasse diagram as a Graphviz digraph: one styled node
// per element, then one edge line per covering pair, in the order of
// succs (succs[i] lists the elements covering i). Piping the output
// through `dot -Tsvg` reproduces the paper's Figure 5/Figure 8 visuals.
func DOT(name string, nodes []DOTNode, succs [][]int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=BT;\n  node [style=filled, fontname=\"Helvetica\"];\n")
	for i, d := range nodes {
		gray := int(255 * (1 - clamp01(d.Shade)))
		font := "black"
		if gray < 110 {
			font = "white"
		}
		attrs := fmt.Sprintf("label=%q, fillcolor=\"#%02x%02x%02x\", fontcolor=%s",
			d.Label, gray, gray, gray, font)
		if d.Star {
			attrs += ", shape=doubleoctagon, color=green, penwidth=3"
		}
		if d.Pruned {
			attrs += ", style=\"filled,dashed\""
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, attrs)
	}
	for i, js := range succs {
		for _, j := range js {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", i, j)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
