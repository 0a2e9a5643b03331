package sink

import (
	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Matches carries a PathProber's matches for one frame's anonymous marks
// to the verifier that folds the frame: ids[j] is the path node whose
// anonymous ID equals the j-th mark from the end. Only a PathProber
// fills one, and the zero value holds none. A match is never evidence:
// the verifier accepts a matched node only inside the candidate set the
// resolver would search and only if the mark's MAC verifies under its
// key, and runs the resolver's search for every mark it does not accept.
type Matches struct {
	ids []packet.NodeID
}

// PathProber is the reader-side half of anonymous-ID resolution: it
// matches a frame's anonymous marks against the root path of the node
// the report's Location names, in the tree of the epoch the frame was
// stamped with — the seed path the TopologyResolver's hints walk (see
// seedTip and rootPath). From the last mark back, each mark matches the
// first path node above the previous match whose anonymous ID equals the
// mark's; the first mark that matches nothing ends the walk, and the
// marks from it upstream are left to the verifier's resolver. A frame
// costs at most one AnonID per path node: no BFS, no MAC and no hint
// learning, so a spoofed Location costs the reader one path of hashes at
// most and the sink nothing it would not have paid anyway.
//
// A transport reader owns one prober and probes each frame while it
// still owns it, so the sink goroutine that folds the frame checks MACs
// instead of hashing anonymous IDs. The prober shares its verifier
// chain's key store and epoch set, which are synchronized, and hashes
// through a Hasher of its own.
//
// pnmlint:single-goroutine — the schedule table, the path buffer and the
// cached tree are unsynchronized; one reader goroutine owns a prober.
type PathProber struct {
	epochs *topology.EpochSet
	hasher *mac.Hasher
	// epoch and net are the last stamped epoch probed and its tree,
	// fetched from the set once per epoch change.
	epoch topology.EpochVersion
	net   *topology.Network
	// path is loc's root path in net, valid while rooted: a source keeps
	// its Location, so consecutive frames reuse one walk.
	path   []packet.NodeID
	loc    uint32
	rooted bool

	// obs bindings; nil (no-op) unless instrumented.
	probes    *obs.Counter
	matched   *obs.Counter
	unmatched *obs.Counter
}

// newPathProber returns a prober over keys and epochs, counting into reg
// when it is non-nil. Its Hasher's schedule misses and core builds count
// into mac.schedule.* with the sink's, so core_builds stays store-wide;
// its hits are never published, since transport.prober.probes counts
// them, and publishing would share a counter with the sink goroutine on
// every frame.
func newPathProber(keys *mac.KeyStore, epochs *topology.EpochSet, reg *obs.Registry) *PathProber {
	p := &PathProber{epochs: epochs, hasher: keys.Hasher()}
	if reg != nil {
		p.hasher.Instrument(reg)
		p.probes = reg.Counter("transport.prober.probes")
		p.matched = reg.Counter("transport.prober.marks_matched")
		p.unmatched = reg.Counter("transport.prober.marks_unmatched")
	}
	return p
}

// Probe fills m with msg's path matches in the tree of epoch, the
// frame's arrival stamp, and publishes the frame's counts: the AnonIDs
// hashed, the marks matched and the marks left to the sink's search.
// pnmlint:noalloc
func (p *PathProber) Probe(msg *packet.Message, epoch topology.EpochVersion, m *Matches) {
	m.ids = m.ids[:0]
	path := p.pathOf(msg.Report.Location, epoch)
	if n := min(len(msg.Marks), len(path)-1); cap(m.ids) < n {
		m.ids = make([]packet.NodeID, 0, n) //pnmlint:allow noalloc grows only until it covers the frame's marks
	}
	var probes uint64
	j := 1 // path[0] is the sink, which never marks
	for k := len(msg.Marks) - 1; k >= 0 && msg.Marks[k].Anonymous; k-- {
		anon := msg.Marks[k].AnonID
		for j < len(path) && p.hasher.AnonID(path[j], msg.Report) != anon {
			j++
			probes++
		}
		if j >= len(path) {
			break
		}
		probes++
		m.ids = append(m.ids, path[j])
		j++
	}
	if probes > 0 {
		p.probes.Add(probes)
	}
	if n := len(m.ids); n > 0 {
		p.matched.Add(uint64(n))
	}
	if n := len(msg.Marks) - len(m.ids); n > 0 {
		p.unmatched.Add(uint64(n))
	}
}

// pathOf returns loc's root path in epoch's tree, empty when loc names
// no routed node. The tree is fetched once per epoch change and the path
// walked once per (epoch, Location) change; the slice aliases p.path.
// pnmlint:noalloc
func (p *PathProber) pathOf(loc uint32, epoch topology.EpochVersion) []packet.NodeID {
	if p.net == nil || epoch != p.epoch {
		p.epoch, p.net = epoch, p.epochs.At(epoch)
		p.rooted = false
	}
	if !p.rooted || loc != p.loc {
		tip, ok := seedTip(p.net, loc)
		if ok {
			p.path = rootPath(p.net, tip, p.path) //pnmlint:allow noalloc rootPath grows the buffer only until it covers the tree's depth
		} else {
			p.path = p.path[:0]
		}
		p.loc, p.rooted = loc, true
	}
	return p.path
}
