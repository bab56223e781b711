package netmodel

// GUSTO testbed data, reproduced from Tables 1 and 2 of the paper.
// GUSTO was the Globus testbed; the directory service reported current
// end-to-end latency and bandwidth between computing sites. The paper
// uses these measurements to calibrate its random problem generator,
// and so do we.

// GustoSites names the five GUSTO sites of Tables 1 and 2, in table
// order: NASA AMES, Argonne National Lab, University of Indiana,
// USC-ISI, and NCSA.
var GustoSites = []string{"AMES", "ANL", "IND", "USC-ISI", "NCSA"}

// gustoLatencyMS is Table 1: pairwise latency in milliseconds.
// The diagonal is zero (a site talking to itself).
var gustoLatencyMS = [5][5]float64{
	{0, 34.5, 89.5, 12, 42},
	{34.5, 0, 20, 26.5, 4.5},
	{89.5, 20, 0, 42.5, 21.5},
	{12, 26.5, 42.5, 0, 29.5},
	{42, 4.5, 21.5, 29.5, 0},
}

// gustoBandwidthKbps is Table 2: pairwise bandwidth in kbit/s.
var gustoBandwidthKbps = [5][5]float64{
	{0, 512, 246, 2044, 391},
	{512, 0, 491, 693, 2402},
	{246, 491, 0, 311, 448},
	{2044, 693, 311, 0, 4976},
	{391, 2402, 448, 4976, 0},
}

// Gusto returns the 5-site GUSTO performance table of Tables 1 and 2,
// converted to SI units (seconds, bytes/second). Diagonal entries are
// zero-latency with an effectively infinite local bandwidth, matching
// the paper's convention that local copies are free.
func Gusto() *Perf {
	p := NewPerf(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				p.Set(i, j, PairPerf{Latency: 0, Bandwidth: localBandwidth})
				continue
			}
			p.Set(i, j, PairPerf{
				Latency:   MsToSeconds(gustoLatencyMS[i][j]),
				Bandwidth: KbpsToBytesPerSecond(gustoBandwidthKbps[i][j]),
			})
		}
	}
	return p
}

// localBandwidth stands in for the bandwidth of a local memory copy.
// Any value large enough to make local transfers negligible works; the
// schedulers never look at diagonal entries.
const localBandwidth = 1e12

// GustoRanges returns the extremes observed in the GUSTO tables, which
// the paper uses as a guideline for its random problem generator:
// latency 4.5–89.5 ms and bandwidth 246–4976 kbit/s, in SI units.
func GustoRanges() (minLat, maxLat, minBW, maxBW float64) {
	first := true
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			lat := MsToSeconds(gustoLatencyMS[i][j])
			bw := KbpsToBytesPerSecond(gustoBandwidthKbps[i][j])
			if first {
				minLat, maxLat, minBW, maxBW = lat, lat, bw, bw
				first = false
				continue
			}
			if lat < minLat {
				minLat = lat
			}
			if lat > maxLat {
				maxLat = lat
			}
			if bw < minBW {
				minBW = bw
			}
			if bw > maxBW {
				maxBW = bw
			}
		}
	}
	return minLat, maxLat, minBW, maxBW
}
