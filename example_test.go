package parapll_test

import (
	"fmt"

	"parapll"
)

// The two-stage workflow: index once, query forever.
func ExampleBuild() {
	g := parapll.NewGraph(4, []parapll.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5},
	})
	idx := parapll.Build(g, parapll.Options{Policy: parapll.Dynamic, Threads: 2})
	fmt.Println(idx.Query(0, 3))
	fmt.Println(idx.Query(3, 0)) // undirected: symmetric
	// Output:
	// 12
	// 12
}

// Unreachable pairs answer parapll.Inf.
func ExampleIndex_Query() {
	g := parapll.NewGraph(3, []parapll.Edge{{U: 0, V: 1, W: 7}})
	idx := parapll.BuildSerial(g, parapll.Options{})
	fmt.Println(idx.Query(0, 1))
	fmt.Println(idx.Query(0, 2) == parapll.Inf)
	// Output:
	// 7
	// true
}

// Path reconstruction returns the route itself, walked over the graph by
// the index's distances.
func ExamplePath() {
	g := parapll.NewGraph(4, []parapll.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 10},
	})
	idx := parapll.Build(g, parapll.Options{Threads: 1})
	path, dist := parapll.Path(g, idx, 0, 3)
	fmt.Println(path, dist)
	// Output:
	// [0 1 2 3] 3
}

// The index stays exact while the graph grows.
func ExampleBuildDynamic() {
	g := parapll.NewGraph(3, []parapll.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}})
	dx := parapll.BuildDynamic(g, parapll.Options{})
	fmt.Println(dx.Query(0, 2))
	dx.InsertEdge(0, 2, 3)
	fmt.Println(dx.Query(0, 2))
	// Output:
	// 10
	// 3
}
