package hetsched_test

import (
	"fmt"
	"log"

	"hetsched"
)

// ExampleNewCommunicator plans repeated exchanges from directory
// snapshots, re-serving the plan while the network holds still.
func ExampleNewCommunicator() {
	comm, err := hetsched.NewCommunicator(5, hetsched.StaticCommSource(hetsched.Gusto()), hetsched.CommConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sizes := hetsched.UniformSizes(5, 1<<20)
	for round := 0; round < 3; round++ {
		r, err := comm.AllToAllRepeated(sizes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: %s, ratio %.3f\n", round, r.Algorithm, comm.Quality(r))
	}
	st := comm.Stats()
	fmt.Printf("plans=%d\n", st.Plans)
	// Output:
	// round 0: openshop, ratio 1.000
	// round 1: openshop, ratio 1.000
	// round 2: openshop, ratio 1.000
	// plans=1
}

// ExampleBruck shows the combine-and-forward alternative: fewer
// start-ups, about log2(P)/2 times the volume.
func ExampleBruck() {
	perf := hetsched.Gusto()
	res, err := hetsched.Bruck(perf, hetsched.UniformSizes(5, 1<<10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rounds: %d\n", res.Rounds)
	fmt.Printf("volume inflation: %.2f\n", res.VolumeInflation())
	// Output:
	// rounds: 3
	// volume inflation: 1.25
}

// ExampleNewMultiNetSystem builds an Ethernet+ATM cluster and shows
// PBPS picking the right network per message size.
func ExampleNewMultiNetSystem() {
	sys := hetsched.NewMultiNetSystem(4)
	eth := hetsched.PairPerf{Latency: 0.001, Bandwidth: 1.25e6} // 10 Mbit/s
	atm := hetsched.PairPerf{Latency: 0.020, Bandwidth: 1.94e7} // 155 Mbit/s
	if err := sys.AddNetwork("ethernet", eth); err != nil {
		log.Fatal(err)
	}
	if err := sys.AddNetwork("atm", atm); err != nil {
		log.Fatal(err)
	}
	small, err := sys.Matrix(hetsched.UniformSizes(4, 1<<10), hetsched.UsePBPS)
	if err != nil {
		log.Fatal(err)
	}
	static, err := sys.Matrix(hetsched.UniformSizes(4, 1<<10), hetsched.SingleFastest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1 kB transfer: pbps %.4fs, static-atm %.4fs\n", small.At(0, 1), static.At(0, 1))
	// Output:
	// 1 kB transfer: pbps 0.0018s, static-atm 0.0201s
}

// ExampleSolveExact certifies the running example's optimum.
func ExampleSolveExact() {
	res, err := hetsched.SolveExact(hetsched.ExampleMatrix(), hetsched.ExactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal makespan: %g (proved: %v)\n", res.Makespan, res.Optimal)
	// Output:
	// optimal makespan: 11 (proved: true)
}
