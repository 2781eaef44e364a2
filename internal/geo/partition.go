package geo

// City partitioning: the geographic half of the sharded city driver
// (internal/city). A full synthetic road network is covered by RSU
// sites placed along every segment at the planning coverage interval
// (rsuplan.go's budget model, made concrete positions), and the sites
// are assigned to worker shards by a consistent-hash ring over the
// site's map-matched position — quantized to a coarse geographic cell
// so neighbouring sites usually land on the same shard and a vehicle
// crosses shards at cell edges, not at every site edge. The functions
// here are pure geometry + hashing: deterministic for a fixed network,
// so a journey's map-matched path always yields the same shard
// sequence (ShardPath), which is what the handover settlement ledger
// relies on.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
)

// RSUSite is one planned roadside unit position: the unit of coverage
// (each site serves a contiguous stretch of one segment) and the unit
// of shard assignment.
type RSUSite struct {
	ID          int // dense, deterministic: assigned in (segment, along) order
	Segment     SegmentID
	AlongMeters float64 // site center along the segment
	Position    Point   // interpolated polyline point at AlongMeters
}

// PlaceRSUSites plans concrete RSU positions for every segment of the
// network: each segment gets ceil-ish len/coverage sites at the centers
// of equal stretches, so the count agrees with rsuplan.go's budget
// model to within rounding. Sites are ordered by (segment ID, along),
// making IDs deterministic for a fixed network.
func PlaceRSUSites(net *Network, coverageMeters float64) []RSUSite {
	if coverageMeters <= 0 {
		coverageMeters = DefaultRSUCoverageMeters
	}
	var sites []RSUSite
	for _, seg := range net.AllSegments() {
		length := seg.LengthMeters()
		k := int(math.Round(length / coverageMeters))
		if k < 1 {
			k = 1
		}
		stretch := length / float64(k)
		for i := 0; i < k; i++ {
			along := (float64(i) + 0.5) * stretch
			sites = append(sites, RSUSite{
				ID:          len(sites),
				Segment:     seg.ID,
				AlongMeters: along,
				Position:    seg.PointAt(along / math.Max(length, 1e-9)),
			})
		}
	}
	return sites
}

// SiteIndex answers "which RSU site serves this map-matched position".
type SiteIndex struct {
	bySeg map[SegmentID][]RSUSite // sorted by AlongMeters
}

// NewSiteIndex indexes planned sites by segment.
func NewSiteIndex(sites []RSUSite) *SiteIndex {
	idx := &SiteIndex{bySeg: make(map[SegmentID][]RSUSite)}
	for _, s := range sites {
		idx.bySeg[s.Segment] = append(idx.bySeg[s.Segment], s)
	}
	for seg := range idx.bySeg {
		row := idx.bySeg[seg]
		sort.Slice(row, func(i, j int) bool { return row[i].AlongMeters < row[j].AlongMeters })
	}
	return idx
}

// SiteAt returns the site whose center is closest to the along-track
// position on the segment. ok is false for segments with no sites.
func (x *SiteIndex) SiteAt(seg SegmentID, alongMeters float64) (RSUSite, bool) {
	row := x.bySeg[seg]
	i, ok := NearestSite(row, alongMeters)
	if !ok {
		return RSUSite{}, false
	}
	return row[i], true
}

// NearestSite returns the index, in one segment's row (as Sites returns
// it: sorted by AlongMeters), of the site whose center is closest to the
// along-track position; a position midway between two centers belongs to
// the earlier one. ok is false for an empty row. Callers that stay on a
// segment for many lookups hold its row and skip the per-call index
// lookup, and can keep per-site facts in a slice parallel to the row.
func NearestSite(row []RSUSite, alongMeters float64) (int, bool) {
	if len(row) == 0 {
		return 0, false
	}
	i := sort.Search(len(row), func(i int) bool { return row[i].AlongMeters >= alongMeters })
	if i == len(row) {
		return len(row) - 1, true
	}
	if i > 0 && alongMeters-row[i-1].AlongMeters <= row[i].AlongMeters-alongMeters {
		return i - 1, true
	}
	return i, true
}

// Sites returns the segment's sites in along order (shared slice; do
// not mutate).
func (x *SiteIndex) Sites(seg SegmentID) []RSUSite { return x.bySeg[seg] }

// Ring is a consistent-hash ring mapping position cells to shards.
// Virtual nodes smooth the per-shard arc lengths; with enough of them
// shard loads concentrate near the mean even for small shard counts.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring of shards*vnodes points. vnodes <= 0 selects
// 128 virtual nodes per shard.
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("geo: ring needs >= 1 shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = 128
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	var label [16]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(label[0:8], uint64(s))
			binary.LittleEndian.PutUint64(label[8:16], uint64(v))
			h := fnv.New64a()
			_, _ = h.Write(label[:])
			r.points = append(r.points, ringPoint{hash: h.Sum64(), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// mixKey re-hashes a key before the ring walk: position-cell keys are
// tiny integers whose raw values cluster on one arc.
func mixKey(key uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// ShardForKey walks clockwise from the hashed key to the next virtual
// node and returns its shard.
func (r *Ring) ShardForKey(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= mixKey(key) })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// WalkFrom returns every shard exactly once, in ring order starting at
// the key's point — the fallback sequence for bounded-load placement.
func (r *Ring) WalkFrom(key uint64) []int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= mixKey(key) })
	out := make([]int, 0, r.shards)
	seen := make([]bool, r.shards)
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// PositionCell quantizes a point to a coarse square cell of the given
// size and packs the cell coordinates into a hashable key. Neighbouring
// positions share a key, which is what gives the consistent-hash
// assignment its spatial locality.
func PositionCell(p Point, cellMeters float64) uint64 {
	if cellMeters <= 0 {
		cellMeters = 2000
	}
	const metersPerDegLat = 111_320.0
	// A fixed mid-latitude longitude scale keeps the key a pure function
	// of the point (no per-network reference latitude to thread around).
	const metersPerDegLon = 78_710.0 // cos(45°) * metersPerDegLat
	x := int64(math.Floor(p.Lon * metersPerDegLon / cellMeters))
	y := int64(math.Floor(p.Lat * metersPerDegLat / cellMeters))
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

// PartitionConfig sizes a city partition.
type PartitionConfig struct {
	// CoverageMeters is the per-site coverage interval. <= 0 selects
	// DefaultRSUCoverageMeters.
	CoverageMeters float64
	// Shards is the worker shard count. <= 0 selects 4.
	Shards int
	// VNodes is the virtual node count per shard. <= 0 selects 128.
	VNodes int
	// CellMeters is the position-cell size for shard assignment. <= 0
	// selects 2000 m.
	CellMeters float64
	// LoadEpsilon bounds the load spill: no shard takes more than
	// (1 + epsilon) x the average site load before its cells overflow
	// to the next shard on the ring (consistent hashing with bounded
	// loads). <= 0 selects 0.10; values >= 1 disable the bound (pure
	// consistent hashing).
	LoadEpsilon float64
}

// CityPartition is a planned city: the RSU sites covering a network
// and their consistent-hash shard assignment.
type CityPartition struct {
	Net        *Network
	Sites      []RSUSite
	CellMeters float64

	idx     *SiteIndex
	ring    *Ring
	shardOf []int // by site ID
}

// PartitionCity places RSU sites over the network and assigns each to
// a shard via the ring. The result is deterministic for a fixed
// network and config.
func PartitionCity(net *Network, cfg PartitionConfig) (*CityPartition, error) {
	if net == nil || net.SegmentCount() == 0 {
		return nil, fmt.Errorf("geo: partition needs a non-empty network")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.CellMeters <= 0 {
		cfg.CellMeters = 2000
	}
	if cfg.LoadEpsilon <= 0 {
		cfg.LoadEpsilon = 0.10
	}
	ring, err := NewRing(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	sites := PlaceRSUSites(net, cfg.CoverageMeters)
	cp := &CityPartition{
		Net:        net,
		Sites:      sites,
		CellMeters: cfg.CellMeters,
		idx:        NewSiteIndex(sites),
		ring:       ring,
		shardOf:    make([]int, len(sites)),
	}
	cellShard := assignCells(ring, sites, cfg.CellMeters, cfg.LoadEpsilon)
	for i, s := range sites {
		cp.shardOf[i] = cellShard[PositionCell(s.Position, cfg.CellMeters)]
	}
	return cp, nil
}

// assignCells maps every distinct position cell to a shard: consistent
// hashing with bounded loads. Each cell wants the ring's shard, but a
// shard already holding more than (1 + eps) x the average site load
// spills the cell to the next shard on the ring. Cells are placed in
// ring-hash order, so the assignment is a pure function of (network,
// ring, cell size) — heavier downtown cells cannot pile onto one shard
// the way unweighted consistent hashing lets them.
func assignCells(ring *Ring, sites []RSUSite, cellMeters, eps float64) map[uint64]int {
	weight := make(map[uint64]int)
	for _, s := range sites {
		weight[PositionCell(s.Position, cellMeters)]++
	}
	cells := make([]uint64, 0, len(weight))
	for c := range weight {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		hi, hj := mixKey(cells[i]), mixKey(cells[j])
		if hi != hj {
			return hi < hj
		}
		return cells[i] < cells[j]
	})
	capacity := len(sites) // eps >= 1 disables the bound
	if eps < 1 {
		capacity = int(math.Ceil((1 + eps) * float64(len(sites)) / float64(ring.Shards())))
	}
	load := make([]int, ring.Shards())
	out := make(map[uint64]int, len(cells))
	for _, c := range cells {
		walk := ring.WalkFrom(c)
		shard := walk[0]
		placed := false
		for _, s := range walk {
			if load[s]+weight[c] <= capacity {
				shard, placed = s, true
				break
			}
		}
		if !placed {
			// A single cell heavier than the capacity: take the least
			// loaded shard on its walk.
			for _, s := range walk {
				if load[s] < load[shard] {
					shard = s
				}
			}
		}
		load[shard] += weight[c]
		out[c] = shard
	}
	return out
}

// Shards returns the shard count.
func (cp *CityPartition) Shards() int { return cp.ring.Shards() }

// ShardOfSite returns the shard a site is assigned to.
func (cp *CityPartition) ShardOfSite(siteID int) int { return cp.shardOf[siteID] }

// SiteAt map-matches an along-track position to its serving site.
func (cp *CityPartition) SiteAt(seg SegmentID, alongMeters float64) (RSUSite, bool) {
	return cp.idx.SiteAt(seg, alongMeters)
}

// ShardAt returns the shard serving an along-track position.
func (cp *CityPartition) ShardAt(seg SegmentID, alongMeters float64) (int, bool) {
	site, ok := cp.idx.SiteAt(seg, alongMeters)
	if !ok {
		return 0, false
	}
	return cp.shardOf[site.ID], true
}

// SitesOf returns a segment's sites in along order (shared slice; do
// not mutate). The city driver copies it into its per-segment table,
// where vehicles find the next coverage boundary ahead of them.
func (cp *CityPartition) SitesOf(seg SegmentID) []RSUSite { return cp.idx.Sites(seg) }

// ShardPath walks a route through the partition and returns the shard
// sequence the journey visits, consecutive duplicates collapsed. It is
// the reference the handover ledger checks vehicles against: the same
// route always produces the same sequence.
func (cp *CityPartition) ShardPath(route []SegmentID) []int {
	var path []int
	for _, seg := range route {
		for _, site := range cp.idx.Sites(seg) {
			shard := cp.shardOf[site.ID]
			if len(path) == 0 || path[len(path)-1] != shard {
				path = append(path, shard)
			}
		}
	}
	return path
}

// Boundary is one adjacent site pair whose shards differ — a place a
// through-driving vehicle hands over between shards.
type Boundary struct {
	FromSite, ToSite   int
	FromShard, ToShard int
}

// Boundaries extracts every shard boundary: consecutive sites along one
// segment, and the last site of a segment against the first site of
// each successor. Sorted by (FromSite, ToSite).
func (cp *CityPartition) Boundaries() []Boundary {
	var out []Boundary
	add := func(a, b RSUSite) {
		sa, sb := cp.shardOf[a.ID], cp.shardOf[b.ID]
		if sa != sb {
			out = append(out, Boundary{FromSite: a.ID, ToSite: b.ID, FromShard: sa, ToShard: sb})
		}
	}
	for _, seg := range cp.Net.AllSegments() {
		row := cp.idx.Sites(seg.ID)
		if len(row) == 0 {
			continue
		}
		for i := 1; i < len(row); i++ {
			add(row[i-1], row[i])
		}
		last := row[len(row)-1]
		for _, succ := range cp.Net.Successors(seg.ID) {
			if next := cp.idx.Sites(succ); len(next) > 0 {
				add(last, next[0])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FromSite != out[j].FromSite {
			return out[i].FromSite < out[j].FromSite
		}
		return out[i].ToSite < out[j].ToSite
	})
	return out
}

// ShardSiteCounts returns how many sites each shard owns.
func (cp *CityPartition) ShardSiteCounts() []int {
	counts := make([]int, cp.ring.Shards())
	for _, s := range cp.shardOf {
		counts[s]++
	}
	return counts
}

// ConnectNearest densifies the network's adjacency so random journeys
// keep moving: for every segment it connects the segment end to up to k
// nearby segments (closest first, ties by ID) within the radius. The
// synthetic builder only connects main roads to their ramp families,
// leaving most segments without successors; city-scale driving needs
// every street to lead somewhere. Existing connections are kept and not
// duplicated. Returns the number of connections added. Deterministic for
// a fixed network.
func ConnectNearest(net *Network, k int, radiusMeters float64) int {
	if k <= 0 {
		k = 2
	}
	if radiusMeters <= 0 {
		radiusMeters = 500
	}
	added := 0
	var have []SegmentID
	var found []Projection
	for _, seg := range net.AllSegments() {
		have = have[:0]
		for _, id := range net.next[seg.ID] {
			if !slices.Contains(have, id) {
				have = append(have, id)
			}
		}
		if len(have) >= k {
			continue
		}
		found = net.nearest(found[:0], seg.End(), radiusMeters, k-len(have), append(have, seg.ID))
		for _, proj := range found {
			net.next[seg.ID] = append(net.next[seg.ID], proj.SegmentID)
			added++
		}
	}
	return added
}
