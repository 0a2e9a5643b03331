package sink

import (
	"encoding/binary"
	"slices"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Resolver maps an anonymous mark ID back to candidate real node IDs for a
// given report. Anonymous IDs are truncated, so several nodes can collide;
// the verifier disambiguates by checking the MAC under each candidate key.
//
// Candidates stream to the caller instead of being returned as a slice so
// a resolver can search lazily (the §7 topology-restricted search expands
// outward depth by depth) and stop the moment the caller accepts one. The
// resolver must keep producing candidates until the caller accepts or the
// candidate space is exhausted: a truncated-ID collision at a shallow
// depth must never hide the true, deeper marker.
type Resolver interface {
	// Resolve calls yield for each candidate real ID for anon under
	// report, cheapest candidates first, and stops early when yield
	// returns true (the caller accepted the candidate). prev is the
	// already-verified node one mark downstream (the hint the paper's §7
	// O(d) optimization uses); havePrev is false for the last mark in a
	// packet. epoch names the topology snapshot current when the packet
	// arrived at the sink (topology.EpochSet versions; 0 is the base
	// topology): a topology-restricted search must walk the tree the
	// packet was forwarded under, not the tree the sink started with.
	// Resolvers whose candidate space is topology-independent ignore it.
	Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool)
}

// ResolveAll drains a resolver's full candidate stream into a slice —
// convenience for tests and tools; the verifier hot path streams instead.
func ResolveAll(r Resolver, report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion) []packet.NodeID {
	var out []packet.NodeID
	r.Resolve(report, anon, prev, havePrev, epoch, func(id packet.NodeID) bool {
		out = append(out, id)
		return false
	})
	return out
}

// anonIDFunc computes a node's anonymous ID for a report. It is a seam:
// in production it is nil and the resolvers derive IDs through their
// cached per-node key schedules (bit-identical to mac.AnonID, without the
// per-call subkey compression); tests substitute a colliding function
// to manufacture truncated-ID collisions at chosen nodes without
// searching for real hash collisions.
type anonIDFunc func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte

// scheduleCacher is implemented by resolvers that hash through a key
// schedule cache their owning verifier may share (see NewVerifier).
// shareScheduleCache hands the cache over: from then on the resolver
// tallies its own counts in plain fields too, and the verifier publishes
// both once per packet, the cache's hits and, through publish, the
// resolver's tallies. A resolver on its own publishes per call.
type scheduleCacher interface {
	shareScheduleCache() *mac.Hasher
	publish()
}

// ExhaustiveResolver implements the paper's base method: for each distinct
// report, compute the anonymous ID of every node in the network and build a
// lookup table. The resolver keeps the table of the last report it saw:
// the sink verifies a packet's marks back to front against one report, so
// a packet costs at most one build.
//
// pnmlint:single-goroutine — the kept table is unsynchronized; one
// goroutine owns an instance for its lifetime (see the package doc's
// Ownership section). The ownership analyzer enforces this.
type ExhaustiveResolver struct {
	keys   *mac.KeyStore
	nodes  []packet.NodeID
	hasher *mac.Hasher
	shared bool       // a verifier shares hasher and publishes it
	anonID anonIDFunc // test seam; nil selects the schedule-backed engine
	// pendingCandidates counts the candidates yielded since the last
	// publish.
	pendingCandidates uint64

	// report and table are the last report's anonymous-ID table; table
	// is nil until the first build. Each entry packs a node's anonymous
	// ID (big-endian, high 32 bits) over the node's index in nodes (low
	// 32 bits), sorted: one allocation per table, a binary search per
	// lookup, and colliding IDs come out in node order.
	report packet.Report
	table  []uint64
	// sortBuf is buildTable's radix-sort buffer, reused across builds.
	sortBuf []uint64

	// obs bindings; nil (no-op) unless Instrument was called.
	tableBuilds *obs.Counter
	candidates  *obs.Counter
}

// NewExhaustiveResolver returns a resolver over the given node universe.
func NewExhaustiveResolver(keys *mac.KeyStore, nodes []packet.NodeID) *ExhaustiveResolver {
	ns := make([]packet.NodeID, len(nodes))
	copy(ns, nodes)
	return &ExhaustiveResolver{keys: keys, nodes: ns, hasher: keys.Hasher()}
}

// Instrument binds the resolver's counters into reg.
func (r *ExhaustiveResolver) Instrument(reg *obs.Registry) {
	r.tableBuilds = reg.Counter("sink.resolver.table_builds")
	r.candidates = reg.Counter("sink.resolver.candidates")
	r.hasher.Instrument(reg)
}

// shareScheduleCache implements scheduleCacher.
func (r *ExhaustiveResolver) shareScheduleCache() *mac.Hasher {
	r.shared = true
	return r.hasher
}

// publish implements scheduleCacher: it adds the candidates tallied
// since the last call to sink.resolver.candidates.
// pnmlint:noalloc
func (r *ExhaustiveResolver) publish() {
	if r.pendingCandidates > 0 {
		r.candidates.Add(r.pendingCandidates)
		r.pendingCandidates = 0
	}
}

// Resolve implements Resolver. The prev hint is ignored: the table already
// narrows candidates to exact anonymous-ID matches. The epoch is ignored
// too — the exhaustive method hashes the whole node universe, which no
// amount of route churn changes, so it is epoch-proof by construction.
func (r *ExhaustiveResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, _ packet.NodeID, _ bool, _ topology.EpochVersion, yield func(packet.NodeID) bool) {
	table := r.lookup(report)
	a := anonKey(anon)
	i, _ := slices.BinarySearch(table, a<<32)
	for ; i < len(table) && table[i]>>32 == a; i++ {
		r.pendingCandidates++
		if yield(r.nodes[uint32(table[i])]) {
			break
		}
	}
	if !r.shared {
		r.publish()
	}
}

// lookup returns the table for report, building it unless report is the
// last report seen.
func (r *ExhaustiveResolver) lookup(report packet.Report) []uint64 {
	if r.table == nil || r.report != report {
		r.report, r.table = report, r.buildTable(report)
	}
	return r.table
}

// buildTable computes the full anonymous-ID table for one report — the
// operation whose feasibility §4.2 argues from hash throughput. It is
// O(n) anonymous-ID hashes per report, so it runs on the cached key
// schedules: after the first build has populated the hasher, each entry
// costs one SipHash-2-4 call, and the table is one slice, radix-sorted
// once.
func (r *ExhaustiveResolver) buildTable(report packet.Report) []uint64 {
	r.tableBuilds.Inc()
	table := make([]uint64, len(r.nodes))
	for i, id := range r.nodes {
		var a [packet.AnonIDLen]byte
		if r.anonID != nil {
			a = r.anonID(r.keys.Key(id), report, id)
		} else {
			a = r.hasher.AnonID(id, report)
		}
		table[i] = anonKey(a)<<32 | uint64(i)
	}
	if len(r.sortBuf) < len(table) {
		r.sortBuf = make([]uint64, len(table))
	}
	sortByAnon(table, r.sortBuf[:len(table)])
	if !r.shared {
		r.hasher.Publish()
	}
	return table
}

// sortByAnon sorts table by each entry's high 32 bits, the anonymous ID,
// through buf (of the same length): a stable LSD radix sort, one byte a
// pass, with all four byte histograms counted in one sweep. Entries are
// built in node order, so stability keeps colliding IDs in node order,
// and the four passes leave the result in table.
func sortByAnon(table, buf []uint64) {
	var start [4][257]int
	for _, e := range table {
		start[0][int(byte(e>>32))+1]++
		start[1][int(byte(e>>40))+1]++
		start[2][int(byte(e>>48))+1]++
		start[3][int(byte(e>>56))+1]++
	}
	for d := range start {
		pos := &start[d]
		for b := 1; b < len(pos); b++ {
			pos[b] += pos[b-1]
		}
		shift := 32 + 8*d
		for _, e := range table {
			b := byte(e >> shift)
			buf[pos[b]] = e
			pos[b]++
		}
		table, buf = buf, table
	}
}

// anonKey is an anonymous ID as a table sort key. The [4]byte conversion
// stops compiling if the wire's ID length ever changes.
func anonKey(a [packet.AnonIDLen]byte) uint64 {
	b := [4]byte(a)
	return uint64(binary.BigEndian.Uint32(b[:]))
}

// TopologyResolver implements the §7 optimization: the sink knows the
// routing topology, so instead of hashing the whole network per report it
// searches only the nodes that could have produced the mark.
//
// Two facts bound the search. First, the marker of a hinted mark must lie
// strictly upstream of the previously verified node — inside that node's
// routing subtree — so the resolver walks the subtree outward from the
// hint. Second, for the packet's most downstream (unhinted) mark, the
// marker is typically within ~1/p hops of the sink, so a breadth-first
// expansion from the sink finds it after touching a small, depth-ordered
// fraction of the network. The paper states the idea for one-hop neighbors
// (exact for deterministic nested marking); with probabilistic marking the
// gap between consecutive markers averages 1/p hops and the search expands
// accordingly.
//
// The search streams every anonymous-ID match to the caller in BFS order
// and keeps expanding until the caller accepts one. Stopping at the first
// matching depth would diverge from the exhaustive base method: a
// truncated-ID collision at a shallower depth would shadow the true,
// deeper marker, its MAC check would fail, and an honest chain would be
// reported stopped. Honest traffic still pays only O(d·depth) — the true
// marker is the shallowest match almost always, and the caller accepts it
// immediately; the full-subtree sweep happens only for genuinely invalid
// marks, which the base method pays O(n) for as well.
//
// Path hints order the search, never narrow it. A source keeps reporting
// the same Location and, within an epoch, its packets keep following the
// same route, so the resolver remembers per Location the most upstream
// marker its BFS accepted (the tip). Until it has learned a tip in the
// packet's epoch, the Location itself is the seed tip when it names a
// routed node of that epoch's tree: an honest source claims its own ID,
// so a cold sink, the first packet of an epoch and a restored chain
// resolve along the source's own path. Resolve first probes the tip's
// root path strictly below the search start, in depth order, and only
// then runs the subtree BFS, which skips the nodes already hashed. The
// candidate set is still the whole subtree, so collisions and agreement
// with the exhaustive resolver are unaffected; Location orders the
// search only, never counts as evidence, and a spoofed one costs a call
// at most one path more than the plain BFS.
//
// The resolver holds at most two routing trees, however many epochs the
// set accumulates: the current epoch's and the last other one's. A new
// epoch is rebuilt into the older tree's buffers, so a long-running sink
// under churn keeps constant resolver state and, once warm, an epoch
// switch allocates nothing.
//
// pnmlint:single-goroutine — owned by one goroutine for its lifetime like
// every sink-side object (see the package doc's Ownership section). The
// ownership analyzer enforces this.
type TopologyResolver struct {
	keys   *mac.KeyStore
	epochs *topology.EpochSet
	hasher *mac.Hasher
	shared bool       // a verifier shares hasher and publishes it
	anonID anonIDFunc // test seam; nil selects the schedule-backed engine
	// unhinted is a test seam: set, every call runs the plain subtree
	// BFS, the reference the hints' cost bounds are measured against.
	unhinted bool
	// cur is the routing tree of the epoch last resolved against and
	// other the one before it. Sink batches arrive roughly in epoch
	// order, so a batch straddling an epoch boundary flips between the
	// two without rebuilding either. Both start unbuilt (nil net); the
	// first Resolve builds its epoch's tree.
	cur, other routeTree
	// frontier/next are the BFS level buffers, reused across Resolve
	// calls so a steady-state resolution allocates nothing. Safe only
	// because the type is single-goroutine (see above).
	frontier []packet.NodeID
	next     []packet.NodeID
	// path is the memoized hint's tip root path in the current tree,
	// indexed by depth (path[0] is the sink), valid while memo.rooted
	// holds: every mark of a packet slices it instead of re-walking the
	// parents.
	path []packet.NodeID
	// hints maps Report.Location to the route learned for it. It holds at
	// most hintCap (the node count) entries and is cleared when full, so
	// a flood of distinct Locations costs one table's worth of memory.
	hints   map[uint32]pathHint
	hintCap int
	// memo caches the last hint lookup, learned or seeded: every mark of
	// a packet shares its report's Location, so a packet pays one map
	// lookup, not one per mark. learn and an epoch switch invalidate it.
	memo memoHint
	// stamp[v] == gen marks node v as hashed by the current call's hint
	// probes, so the BFS never hashes a node twice in one Resolve.
	stamp []uint16
	gen   uint16
	// pending tallies the counts of the calls since the last publish.
	pending resolveTally

	// obs bindings; nil (no-op) unless Instrument was called.
	probes     *obs.Counter
	candidates *obs.Counter
	hintHits   *obs.Counter
	hintMisses *obs.Counter
	treeBuilds *obs.Counter
}

// resolveTally is the TopologyResolver's per-call counts, summed in plain
// fields until publish adds them to the shared counters.
type resolveTally struct {
	probes, candidates, hintHits, hintMisses uint64
}

// routeTree is one epoch's routing snapshot and its downlink adjacency in
// compressed-sparse-row form: node v's children are kids[off[v]:off[v+1]],
// in ascending ID order. off has NumNodes()+2 entries, one per NodeID
// (the sink included) plus the end sentinel.
type routeTree struct {
	version topology.EpochVersion
	net     *topology.Network // nil until the first build
	off     []int32
	kids    []packet.NodeID
}

// build makes t epoch v's tree over net, reusing t's buffers: a counting
// sort of the routed nodes by parent. Orphaned nodes (depth -1 after a
// partition-causing fault) are left out: they have no forwarding parent in
// that epoch, so no mark can originate downstream of them. Once the
// buffers have grown to the node count, a rebuild allocates nothing.
// pnmlint:noalloc
func (t *routeTree) build(v topology.EpochVersion, net *topology.Network) {
	n := net.NumNodes()
	t.version, t.net = v, net
	// Explicit capacity checks rather than append(s, make(...)...): the
	// race detector's instrumentation turns that idiom into an allocation.
	if cap(t.off) < n+2 {
		t.off = make([]int32, n+2) //pnmlint:allow noalloc grows only until it covers the node count
	}
	t.off = t.off[:n+2]
	clear(t.off)
	for id := 1; id <= n; id++ {
		if net.HasRoute(packet.NodeID(id)) {
			t.off[net.Parent(packet.NodeID(id))]++
		}
	}
	// Inclusive prefix sums: off[p] is now the end of p's children.
	for i := 1; i < len(t.off); i++ {
		t.off[i] += t.off[i-1]
	}
	// Place children from the highest ID down, decrementing each parent's
	// cursor: every list comes out ascending and off[p] ends at p's start.
	routed := int(t.off[n+1])
	if cap(t.kids) < routed {
		t.kids = make([]packet.NodeID, routed) //pnmlint:allow noalloc grows only until it covers the node count
	}
	t.kids = t.kids[:routed]
	for id := n; id >= 1; id-- {
		if net.HasRoute(packet.NodeID(id)) {
			p := net.Parent(packet.NodeID(id))
			t.off[p]--
			t.kids[t.off[p]] = packet.NodeID(id)
		}
	}
}

// children returns v's children in t, nil for an ID outside the tree. The
// slice aliases t's buffer.
func (t *routeTree) children(v packet.NodeID) []packet.NodeID {
	if int(v)+1 >= len(t.off) {
		return nil
	}
	return t.kids[t.off[v]:t.off[v+1]]
}

// pathHint is the route learned for one Location: the most upstream
// marker the BFS accepted, and the epoch whose tree it was accepted in.
type pathHint struct {
	epoch topology.EpochVersion
	tip   packet.NodeID
}

// memoHint is one memoized hint lookup: loc's learned or seeded hint and
// whether it has one, and whether the resolver's path buffer holds the
// hint's root path yet. The zero value is an empty memo.
type memoHint struct {
	valid  bool
	found  bool
	rooted bool
	loc    uint32
	hint   pathHint
}

// NewTopologyResolver returns a resolver that exploits the known topology.
// The network is treated as the base (and only) epoch; every packet
// resolves against it, which is exactly the pre-epoch behavior for static
// deployments.
func NewTopologyResolver(keys *mac.KeyStore, topo *topology.Network) *TopologyResolver {
	return NewTopologyResolverEpochs(keys, topology.NewEpochSet(topo))
}

// NewTopologyResolverEpochs returns a resolver over a dynamic topology:
// each Resolve walks the snapshot named by the packet's arrival epoch.
// The set may advance (the fault machinery opens an epoch on every
// route repair) while resolvers read it from their own goroutines; the
// host that stamps a packet's epoch pins it until the packet is
// verified. The hint table is sized from the current epoch, not the
// base: a chaos Restore builds its resolver over a set whose epoch 0 may
// long be released.
func NewTopologyResolverEpochs(keys *mac.KeyStore, epochs *topology.EpochSet) *TopologyResolver {
	return &TopologyResolver{
		keys:    keys,
		epochs:  epochs,
		hasher:  keys.Hasher(),
		hintCap: max(epochs.Current().Net.NumNodes(), 1),
	}
}

// useEpoch makes epoch v's tree current. The current tree becomes the
// other one; the tree swapped in is rebuilt for v unless it already holds
// it. It also sizes the per-node stamp array to cover the epoch's nodes,
// and drops the hint memo, whose root path was walked in the old tree.
func (r *TopologyResolver) useEpoch(v topology.EpochVersion) {
	r.cur, r.other = r.other, r.cur
	r.memo = memoHint{} // its root path belongs to the old tree
	if r.cur.net != nil && r.cur.version == v {
		return
	}
	net := r.epochs.At(v)
	r.cur.build(v, net)
	r.treeBuilds.Inc()
	if n := net.NumNodes() + 1; len(r.stamp) < n {
		r.stamp = append(r.stamp, make([]uint16, n-len(r.stamp))...)
	}
}

// Instrument binds the resolver's counters into reg.
func (r *TopologyResolver) Instrument(reg *obs.Registry) {
	r.probes = reg.Counter("sink.resolver.probes")
	r.candidates = reg.Counter("sink.resolver.candidates")
	r.hintHits = reg.Counter("sink.resolver.hint_hits")
	r.hintMisses = reg.Counter("sink.resolver.hint_misses")
	r.treeBuilds = reg.Counter("sink.resolver.tree_builds")
	r.hasher.Instrument(reg)
}

// shareScheduleCache implements scheduleCacher.
func (r *TopologyResolver) shareScheduleCache() *mac.Hasher {
	r.shared = true
	return r.hasher
}

// publish implements scheduleCacher: it adds the probe, candidate and
// hint counts tallied since the last call to the shared counters.
// pnmlint:noalloc
func (r *TopologyResolver) publish() {
	p := r.pending
	r.pending = resolveTally{}
	r.probes.Add(p.probes)
	r.candidates.Add(p.candidates)
	r.hintHits.Add(p.hintHits)
	r.hintMisses.Add(p.hintMisses)
}

// Resolve implements Resolver. A call is a hint hit when the caller
// accepts a node on the hinted path, learned or seeded; every other call
// falls through to the subtree BFS and counts as a miss. The call's
// probe, candidate and hint counts are tallied in plain fields and
// published at its end, or, while a verifier shares the resolver, once
// per packet by the verifier.
// pnmlint:noalloc
func (r *TopologyResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	if epoch != r.cur.version || r.cur.net == nil {
		// Swap in the routing tree of the packet's arrival epoch: only
		// the first packet after a topology change rebuilds one.
		r.useEpoch(epoch)
	}
	probes, candidates, hit := r.search(report, anon, prev, havePrev, epoch, yield)
	r.pending.probes += probes
	r.pending.candidates += candidates
	if hit {
		r.pending.hintHits++
	} else {
		r.pending.hintMisses++
	}
	if !r.shared {
		r.publish()
		r.hasher.Publish()
	}
}

// search is Resolve's body: it probes the hinted path and then the
// subtree BFS, and returns how many nodes it hashed, how many matched
// anon, and whether the caller accepted a node on the hinted path.
// pnmlint:noalloc
func (r *TopologyResolver) search(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) (probes, candidates uint64, hit bool) {
	start := prev
	if !havePrev {
		// The most downstream mark: search the whole routing tree outward
		// from the sink; the marker usually sits within ~1/p hops.
		start = packet.SinkID
	}
	// Probe the hinted path first, shallowest node first: the marker
	// nearest start is the one an honest chain carries next.
	hinted := false
	if _, ok := r.hint(report.Location); ok && !r.unhinted {
		if path := r.hintPath(start); len(path) > 0 {
			hinted = true
			if r.gen++; r.gen == 0 {
				clear(r.stamp)
				r.gen = 1
			}
			for _, v := range path {
				r.stamp[v] = r.gen
				probes++
				if r.anonOf(report, v) == anon {
					candidates++
					if yield(v) {
						return probes, candidates, true
					}
				}
			}
		}
	}
	// BFS through the routing subtree of start, streaming matches in
	// depth order and skipping (but still expanding) the nodes the hint
	// probes hashed. The expansion continues past levels whose matches
	// the caller rejects — see the type comment on collision robustness.
	// The two level buffers live on the resolver and are reused across
	// calls (their capacities converge on the widest level, after which
	// a resolution allocates nothing); they are swapped between
	// iterations, so the initial frontier must be a copy: children's
	// slices alias the tree. Both headers are stored back before
	// returning — even on early accept — so growth is never lost.
	frontier := append(r.frontier[:0], r.cur.children(start)...)
	next := r.next[:0]
	done := false
	for len(frontier) > 0 && !done {
		next = next[:0]
		for _, v := range frontier {
			if !hinted || r.stamp[v] != r.gen {
				probes++
				if r.anonOf(report, v) == anon {
					candidates++
					if yield(v) {
						r.learn(report.Location, pathHint{epoch: epoch, tip: v})
						done = true
						break
					}
				}
			}
			next = append(next, r.cur.children(v)...)
		}
		frontier, next = next, frontier
	}
	r.frontier, r.next = frontier, next
	return probes, candidates, false
}

// anonOf hashes node v's anonymous ID for report.
// pnmlint:noalloc
func (r *TopologyResolver) anonOf(report packet.Report, v packet.NodeID) [packet.AnonIDLen]byte {
	if r.anonID != nil {
		return r.anonID(r.keys.Key(v), report, v)
	}
	return r.hasher.AnonID(v, report)
}

// hintPath returns the nodes of the memoized hint tip's root path
// strictly below start in the current epoch's tree, shallowest first, or
// nil when start is not an ancestor of the tip. The root path is walked
// once per memo, not once per mark; the slice aliases it.
// pnmlint:noalloc
func (r *TopologyResolver) hintPath(start packet.NodeID) []packet.NodeID {
	net := r.cur.net
	if !r.memo.rooted {
		r.path = rootPath(net, r.memo.hint.tip, r.path) //pnmlint:allow noalloc rootPath grows the buffer only until it covers the tree's depth
		r.memo.rooted = true
	}
	if !net.HasRoute(start) {
		return nil
	}
	d := net.Depth(start)
	if d >= len(r.path) || r.path[d] != start {
		return nil
	}
	return r.path[d+1:]
}

// hint returns loc's route in the current tree's epoch, served from the
// memo when the previous lookup was for the same Location: the route
// learned for loc in that epoch, else the seed, the root path of the
// node loc names when it is routed in the tree, else none.
// pnmlint:noalloc
func (r *TopologyResolver) hint(loc uint32) (pathHint, bool) {
	if !r.memo.valid || r.memo.loc != loc {
		epoch, net := r.cur.version, r.cur.net
		h, ok := r.hints[loc]
		if !ok || h.epoch != epoch {
			h.epoch = epoch
			h.tip, ok = seedTip(net, loc)
		}
		r.memo = memoHint{valid: true, found: ok, loc: loc, hint: h}
	}
	return r.memo.hint, r.memo.found
}

// seedTip returns the node loc names and whether it is routed in net:
// the seed of the resolver's path hints and of the reader's PathProber,
// which both walk its root path. An out-of-range or orphaned Location
// seeds nothing.
// pnmlint:noalloc
func seedTip(net *topology.Network, loc uint32) (packet.NodeID, bool) {
	tip := packet.NodeID(loc)
	return tip, loc >= 1 && loc <= uint32(net.NumNodes()) && net.HasRoute(tip)
}

// rootPath returns tip's root path in net, indexed by depth (path[0] is
// the sink, path[len-1] is tip), in buf's storage; an unrouted tip has an
// empty path. buf grows only until it covers the tree's depth.
// pnmlint:noalloc
func rootPath(net *topology.Network, tip packet.NodeID, buf []packet.NodeID) []packet.NodeID {
	if !net.HasRoute(tip) {
		return buf[:0]
	}
	d := net.Depth(tip)
	if cap(buf) < d+1 {
		buf = make([]packet.NodeID, d+1) //pnmlint:allow noalloc grows only until it covers the tree's depth
	}
	buf = buf[:d+1]
	for v := tip; d >= 0; d-- {
		buf[d] = v
		v = net.Parent(v)
	}
	return buf
}

// learn records h as loc's route, clearing the table first when a new
// Location would overflow it. Map growth allocates, so it stays out of
// Resolve's noalloc body.
//
//go:noinline
func (r *TopologyResolver) learn(loc uint32, h pathHint) {
	r.memo = memoHint{}
	if r.hints == nil {
		r.hints = make(map[uint32]pathHint)
	}
	if _, ok := r.hints[loc]; !ok && len(r.hints) >= r.hintCap {
		clear(r.hints)
	}
	r.hints[loc] = h
}
