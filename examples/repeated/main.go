// Repeated: the Section 6.2 scenario end to end. A sensor-style
// application performs the same total exchange every minute while the
// network breathes under a diurnal load profile, and the directory
// re-measures it every three minutes. The Communicator plans a round
// whose cost matrix changed and re-serves the previous plan for a
// round whose matrix did not.
//
//	go run ./examples/repeated
package main

import (
	"fmt"
	"log"

	"hetsched"
)

func main() {
	base := hetsched.Gusto()
	profile, err := hetsched.DiurnalProfile(5, 3600, 0.4) // hour-long "day", ±40% load
	if err != nil {
		log.Fatal(err)
	}

	// The directory source: the network as of the directory's last
	// measurement, taken every 180 s.
	now := 0.0
	source := func() (*hetsched.Perf, error) {
		measured := float64(int(now/180) * 180)
		return hetsched.SampleProfile(base, profile, measured), nil
	}
	comm, err := hetsched.NewCommunicator(5, source, hetsched.CommConfig{})
	if err != nil {
		log.Fatal(err)
	}

	sizes := hetsched.UniformSizes(5, 1<<20)
	const rounds = 10
	fmt.Printf("%6s %10s %12s %12s %10s %s\n", "round", "t (s)", "t_lb (s)", "t_max (s)", "ratio", "plan")
	for round := 0; round < rounds; round++ {
		plans := comm.Stats().Plans
		r, err := comm.AllToAllRepeated(sizes)
		if err != nil {
			log.Fatal(err)
		}
		how := "re-served"
		if comm.Stats().Plans > plans {
			how = "planned"
		}
		fmt.Printf("%6d %10.0f %12.2f %12.2f %10.3f %s, %s\n",
			round, now, r.LowerBound, r.CompletionTime(), r.Ratio(), r.Algorithm, how)
		now += 60 // the next data set arrives a minute later
	}
	st := comm.Stats()
	fmt.Printf("\nplanning effort: %d rounds planned, %d re-served unchanged\n", st.Plans, rounds-st.Plans)
}
