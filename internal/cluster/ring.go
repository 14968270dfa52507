// Package cluster turns a set of dtrserved replicas into one serving
// fleet: a consistent-hash ring over canonical modelspec fingerprints
// routes each distinct request to exactly one owner replica, so the
// fleet computes every distinct spec once instead of once per replica.
//
// The ring uses virtual nodes for balance and a deterministic
// bounded-load assignment (no member owns more than DefaultLoadFactor
// times its fair share of the hash space), so a hot fleet cannot
// concentrate on one replica. Membership is a static peer list; a
// lightweight HTTP prober ejects peers whose /readyz stops answering and
// re-admits them when it recovers, remapping only the dead peer's arcs
// (minimal disruption). Forwarding is failure-tolerant: on owner failure the
// client retries the next ring successor once (optionally hedged on a
// timer), and a total forwarding failure degrades to local computation —
// the cluster layer can reduce cache efficiency, never availability.
package cluster

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

// Ring assigns string keys (canonical fingerprints) to members (peer
// base URLs) by consistent hashing with virtual nodes and a
// deterministic bounded-load cap. Construction is a pure function of the
// member set and parameters: every replica configured with the same
// members derives the same ring, so routing decisions agree fleet-wide
// without coordination.
type Ring struct {
	members []string // sorted, deduplicated
	hashes  []uint64 // sorted virtual-node positions
	owners  []int    // effective member index owning each arc (post-bounding)
	load    []uint64 // hash-space share per member, in ring units
}

// The ring's parameters: 128 virtual nodes per member keeps the natural
// (pre-bounding) imbalance within a few percent, and a 1.25 load factor
// caps any member's share at 25% above fair.
const (
	DefaultVNodes     = 128
	DefaultLoadFactor = 1.25
)

// NewRing builds a ring over members. Duplicate members collapse; order
// does not matter.
func NewRing(members []string) *Ring {
	seen := map[string]bool{}
	var uniq []string
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, load: make([]uint64, len(uniq))}
	if len(uniq) == 0 {
		return r
	}

	type vnode struct {
		hash   uint64
		member int
	}
	points := make([]vnode, 0, len(uniq)*DefaultVNodes)
	for mi, m := range uniq {
		for v := 0; v < DefaultVNodes; v++ {
			points = append(points, vnode{hashKey(m + "#" + strconv.Itoa(v)), mi})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].member < points[j].member
	})

	r.hashes = make([]uint64, len(points))
	r.owners = make([]int, len(points))
	natural := make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.hash
		natural[i] = p.member
	}

	// Bounded-load pass: walk the arcs in ring order and cap every
	// member at DefaultLoadFactor times its fair share of the 2^64 hash
	// space. An arc whose natural owner is over budget spills to the
	// natural owner of the next virtual node (in ring order) that still
	// has room — deterministic, so every replica derives identical spills.
	budget := shareBudget(len(uniq))
	n := len(points)
	for i := 0; i < n; i++ {
		arc := arcLen(r.hashes, i)
		owner := natural[i]
		if r.load[owner]+arc > budget {
			for step := 1; step < n; step++ {
				cand := natural[(i+step)%n]
				if cand != owner && r.load[cand]+arc <= budget {
					owner = cand
					break
				}
			}
			// All members at budget (possible only for tiny rings with
			// huge arcs): keep the least-loaded member, deterministically.
			if r.load[owner]+arc > budget {
				for mi := range r.load {
					if r.load[mi] < r.load[owner] {
						owner = mi
					}
				}
			}
		}
		r.owners[i] = owner
		r.load[owner] += arc
	}
	return r
}

// shareBudget is the bounded-load cap in ring units:
// DefaultLoadFactor * 2^64/n, saturating at the maximum representable
// share.
func shareBudget(n int) uint64 {
	b := DefaultLoadFactor * math.Exp2(64) / float64(n)
	if b >= math.Exp2(64)-1 {
		return math.MaxUint64
	}
	return uint64(b)
}

// arcLen is the hash-space span ending at virtual node i (wrapping).
func arcLen(hashes []uint64, i int) uint64 {
	if len(hashes) == 1 {
		return math.MaxUint64
	}
	if i == 0 {
		return hashes[0] + (math.MaxUint64 - hashes[len(hashes)-1])
	}
	return hashes[i] - hashes[i-1]
}

// hashKey maps a string onto the ring: 64-bit FNV-1a through a
// splitmix64 finalizer. Raw FNV-1a of near-identical strings (vnode
// labels differ only in a trailing index) clusters badly — all points
// land in one tiny region and a single arc covers most of the space,
// defeating both balance and the bounded-load cap. The finalizer's
// avalanche spreads them uniformly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// index locates the virtual node owning key's position.
func (r *Ring) index(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.members) == 0 {
		return ""
	}
	return r.members[r.owners[r.index(key)]]
}

// Successors returns up to n distinct members after key's owner in ring
// order (the owner excluded). The first entry is the replica that would
// own the key if the owner left the ring — the natural fallback target.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.members) == 0 || n <= 0 {
		return nil
	}
	start := r.index(key)
	owner := r.owners[start]
	seen := map[int]bool{owner: true}
	var out []string
	for step := 1; step < len(r.owners) && len(out) < n; step++ {
		m := r.owners[(start+step)%len(r.owners)]
		if !seen[m] {
			seen[m] = true
			out = append(out, r.members[m])
		}
	}
	return out
}

// Share returns the fraction of the hash space member owns (0 when not
// a member). Exported as the dtr_cluster_ring_share gauge.
func (r *Ring) Share(member string) float64 {
	for i, m := range r.members {
		if m == member {
			return float64(r.load[i]) / math.Exp2(64)
		}
	}
	return 0
}
