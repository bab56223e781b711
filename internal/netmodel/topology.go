package netmodel

import (
	"fmt"
	"math"
)

// This file models a metacomputing topology like the paper's Figure 1:
// compute hosts clustered into sites, each site with a local network,
// sites joined by long-haul backbone links. Routing between two hosts
// traverses the source site's LAN, zero or more backbone links, and the
// destination site's LAN. The topology can be flattened into a Perf
// table of end-to-end pair performance, optionally dividing each link's
// bandwidth among the flows that share it — the sharing rule stated in
// Section 3.1 of the paper ("if the paths between two distinct node
// pairs share a common link, the bandwidth of the common link is
// divided among these communicating pairs").

// Link is a physical network segment with a fixed traversal latency and
// a total bandwidth that concurrent flows share.
type Link struct {
	Name      string
	Latency   float64 // seconds to traverse the link
	Bandwidth float64 // total bytes per second available on the link
}

// Site is a collection of hosts behind one local network.
type Site struct {
	Name  string
	Hosts int  // number of compute hosts at the site
	LAN   Link // the site's local network segment
}

// Topology is a collection of sites joined by backbone links. Backbone
// connectivity may be sparse; routing finds the lowest-latency backbone
// path between sites.
type Topology struct {
	sites    []Site
	backbone map[[2]int]Link // key is (min site index, max site index)
	hostSite []int           // global host id -> site index
}

// NewTopology builds a topology from the given sites. Backbone links
// are added with ConnectSites.
func NewTopology(sites []Site) *Topology {
	t := &Topology{
		sites:    append([]Site(nil), sites...),
		backbone: make(map[[2]int]Link),
	}
	for si, s := range t.sites {
		if s.Hosts < 0 {
			panic(fmt.Sprintf("netmodel: site %q has negative host count", s.Name))
		}
		for h := 0; h < s.Hosts; h++ {
			t.hostSite = append(t.hostSite, si)
		}
	}
	return t
}

// ConnectSites adds a bidirectional backbone link between sites a and b.
func (t *Topology) ConnectSites(a, b int, link Link) {
	if a == b {
		panic("netmodel: backbone link must join two distinct sites")
	}
	if a > b {
		a, b = b, a
	}
	t.backbone[[2]int{a, b}] = link
}

// Hosts returns the total number of hosts across all sites. Hosts are
// numbered globally, site by site, in declaration order.
func (t *Topology) Hosts() int { return len(t.hostSite) }

// Sites returns the number of sites.
func (t *Topology) Sites() int { return len(t.sites) }

// Site returns the site definition at index si.
func (t *Topology) Site(si int) Site { return t.sites[si] }

// backboneLink returns the direct link between sites a and b, if any.
func (t *Topology) backboneLink(a, b int) (Link, bool) {
	if a > b {
		a, b = b, a
	}
	l, ok := t.backbone[[2]int{a, b}]
	return l, ok
}

// sitePath returns the sequence of backbone links on the lowest-latency
// route from site a to site b, found with Dijkstra over link latencies.
// It returns nil, false when b is unreachable from a.
func (t *Topology) sitePath(a, b int) ([]Link, bool) {
	if a == b {
		return nil, true
	}
	const unreached = math.MaxFloat64
	n := len(t.sites)
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = unreached
		prev[i] = -1
	}
	dist[a] = 0
	for {
		u, best := -1, unreached
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u == -1 {
			break
		}
		if u == b {
			break
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			l, ok := t.backboneLink(u, v)
			if !ok {
				continue
			}
			if d := dist[u] + l.Latency; d < dist[v] {
				dist[v] = d
				prev[v] = u
			}
		}
	}
	if dist[b] == unreached {
		return nil, false
	}
	// Walk predecessors back from b and reverse.
	var rev []Link
	for v := b; v != a; v = prev[v] {
		l, _ := t.backboneLink(prev[v], v)
		rev = append(rev, l)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// Path returns the ordered links a message from host src to host dst
// traverses: the source LAN, any backbone links, and the destination
// LAN. Hosts at the same site share only that site's LAN. It returns
// an error when no backbone route exists.
func (t *Topology) Path(src, dst int) ([]Link, error) {
	if src < 0 || src >= t.Hosts() || dst < 0 || dst >= t.Hosts() {
		return nil, fmt.Errorf("netmodel: host out of range: src=%d dst=%d hosts=%d", src, dst, t.Hosts())
	}
	sa, sb := t.hostSite[src], t.hostSite[dst]
	if sa == sb {
		return []Link{t.sites[sa].LAN}, nil
	}
	mid, ok := t.sitePath(sa, sb)
	if !ok {
		return nil, fmt.Errorf("netmodel: no route between sites %q and %q", t.sites[sa].Name, t.sites[sb].Name)
	}
	path := make([]Link, 0, len(mid)+2)
	path = append(path, t.sites[sa].LAN)
	path = append(path, mid...)
	path = append(path, t.sites[sb].LAN)
	return path, nil
}

// PairPerf flattens the routed path from src to dst into end-to-end
// performance: latency is the sum of link latencies; bandwidth is the
// minimum link bandwidth (the bottleneck), with no sharing applied.
func (t *Topology) PairPerf(src, dst int) (PairPerf, error) {
	if src == dst {
		return PairPerf{Latency: 0, Bandwidth: localBandwidth}, nil
	}
	path, err := t.Path(src, dst)
	if err != nil {
		return PairPerf{}, err
	}
	return flatten(path), nil
}

func flatten(path []Link) PairPerf {
	var pp PairPerf
	pp.Bandwidth = math.Inf(1)
	for _, l := range path {
		pp.Latency += l.Latency
		if l.Bandwidth < pp.Bandwidth {
			pp.Bandwidth = l.Bandwidth
		}
	}
	return pp
}

// Perf flattens the whole topology into an end-to-end performance
// table with no bandwidth sharing (each pair sees bottleneck bandwidth
// as if it were alone on the network).
func (t *Topology) Perf() (*Perf, error) {
	n := t.Hosts()
	p := NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pp, err := t.PairPerf(i, j)
			if err != nil {
				return nil, err
			}
			p.Set(i, j, pp)
		}
	}
	return p, nil
}

// Flow identifies one active host-to-host communication.
type Flow struct {
	Src, Dst int
}

// SharedPerf flattens the topology into a performance table while
// dividing each link's bandwidth equally among the given concurrent
// flows that cross it, implementing the sharing rule of Section 3.1.
// Pairs not participating in any flow see unshared bottleneck
// bandwidth. Duplicate flows are counted once; self flows are ignored.
func (t *Topology) SharedPerf(flows []Flow) (*Perf, error) {
	// Count, per link name, how many distinct flows traverse it.
	use := make(map[string]int)
	seen := make(map[Flow]bool)
	flowPaths := make(map[Flow][]Link)
	for _, f := range flows {
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		path, err := t.Path(f.Src, f.Dst)
		if err != nil {
			return nil, err
		}
		flowPaths[f] = path
		for _, l := range path {
			use[l.Name]++
		}
	}
	n := t.Hosts()
	p := NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				p.Set(i, j, PairPerf{Latency: 0, Bandwidth: localBandwidth})
				continue
			}
			f := Flow{Src: i, Dst: j}
			path := flowPaths[f]
			if path == nil {
				var err error
				path, err = t.Path(i, j)
				if err != nil {
					return nil, err
				}
			}
			var pp PairPerf
			pp.Bandwidth = math.Inf(1)
			for _, l := range path {
				pp.Latency += l.Latency
				bw := l.Bandwidth
				if c := use[l.Name]; c > 1 && seen[f] {
					bw /= float64(c)
				}
				if bw < pp.Bandwidth {
					pp.Bandwidth = bw
				}
			}
			p.Set(i, j, pp)
		}
	}
	return p, nil
}

// HostNames returns a stable, human-readable name for every global
// host, of the form "<site>/<k>".
func (t *Topology) HostNames() []string {
	names := make([]string, 0, t.Hosts())
	counts := make(map[int]int)
	for h := 0; h < t.Hosts(); h++ {
		si := t.hostSite[h]
		names = append(names, fmt.Sprintf("%s/%d", t.sites[si].Name, counts[si]))
		counts[si]++
	}
	return names
}

// ExampleTopology returns a small three-site system in the spirit of
// the paper's Figure 1: a supercomputer-class site, a workstation
// cluster, and a visualization site, joined by heterogeneous long-haul
// links. hostsPerSite controls the size of each site.
func ExampleTopology(hostsPerSite int) *Topology {
	t := NewTopology([]Site{
		{Name: "Site1", Hosts: hostsPerSite, LAN: Link{Name: "lan1", Latency: 0.001, Bandwidth: KbpsToBytesPerSecond(100_000)}},
		{Name: "Site2", Hosts: hostsPerSite, LAN: Link{Name: "lan2", Latency: 0.002, Bandwidth: KbpsToBytesPerSecond(10_000)}},
		{Name: "Site3", Hosts: hostsPerSite, LAN: Link{Name: "lan3", Latency: 0.001, Bandwidth: KbpsToBytesPerSecond(155_000)}},
	})
	t.ConnectSites(0, 1, Link{Name: "t3-1-2", Latency: 0.020, Bandwidth: KbpsToBytesPerSecond(45_000)})
	t.ConnectSites(1, 2, Link{Name: "atm-2-3", Latency: 0.015, Bandwidth: KbpsToBytesPerSecond(155_000)})
	return t
}
