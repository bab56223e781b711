package hetsched_test

import (
	"fmt"
	"log"

	"hetsched"
)

// Example schedules a total exchange of 1 MB messages over the GUSTO
// testbed with the open shop heuristic and reports its quality.
func Example() {
	perf := hetsched.Gusto()
	m, err := hetsched.BuildUniform(perf, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hetsched.OpenShop().Schedule(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events: %d\n", len(res.Schedule.Events))
	fmt.Printf("t_max:  %.3f s\n", res.CompletionTime())
	fmt.Printf("t_lb:   %.3f s\n", res.LowerBound)
	fmt.Printf("ratio:  %.3f\n", res.Ratio())
	// Output:
	// events: 20
	// t_max:  97.056 s
	// t_lb:   97.056 s
	// ratio:  1.000
}

// ExampleCompare runs every scheduler on the paper's running example.
func ExampleCompare() {
	results, err := hetsched.Compare(hetsched.ExampleMatrix())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-18s %4.1f\n", r.Algorithm, r.CompletionTime())
	}
	// Output:
	// baseline           12.0
	// baseline-barrier   15.0
	// maxmatch           11.0
	// minmatch           11.0
	// greedy             11.0
	// openshop           13.0
}

// ExamplePatternLowerBound shows partial (all-to-some) scheduling: two
// repository processors feed three clients.
func ExamplePatternLowerBound() {
	m, err := hetsched.BuildUniform(hetsched.Gusto(), 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	pattern := hetsched.PartialPattern{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3},
	}
	res, err := hetsched.PartialOpenShop(m, pattern)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events: %d, within 2x bound: %v\n",
		len(res.Schedule.Events),
		res.CompletionTime() <= 2*hetsched.PatternLowerBound(m, pattern))
	// Output:
	// events: 4, within 2x bound: true
}
