package graph

// ConnectedComponents labels every vertex with a component id in [0,k) and
// returns the labels plus k, the number of components. Component ids are
// assigned in order of the smallest vertex they contain.
func ConnectedComponents(g *Graph) (labels []int32, k int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []Vertex
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := int32(k)
		k++
		labels[s] = id
		stack = append(stack[:0], Vertex(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ns, _ := g.Neighbors(u)
			for _, v := range ns {
				if labels[v] == -1 {
					labels[v] = id
					stack = append(stack, v)
				}
			}
		}
	}
	return labels, k
}

// IsConnected reports whether g has exactly one connected component (an
// empty graph counts as connected).
func IsConnected(g *Graph) bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, k := ConnectedComponents(g)
	return k == 1
}
