package core

import (
	"sort"

	"repro/internal/types"
)

// conflictGraph is the reader's view of Fig. 4 line 11 (and Fig. 6 line
// 11): vertices are the objects that responded in the first read round,
// and there is an edge {i,k} whenever conflict(i,k) or conflict(k,i)
// holds — object k reported (in round 1) a candidate whose tsrarray
// claims object i handed the writer a reader timestamp above tsrFR, the
// reader's own first-round timestamp. Lemma 1 guarantees every edge
// touches at least one malicious object, so the graph restricted to
// correct responders is edgeless and a minimum vertex cover has at most
// b vertices.
//
// The round-1 wait condition — "a subset of ≥ S−t responders with no
// conflicting pair" — is exactly: the conflict graph has an independent
// set of size ≥ S−t, i.e. a vertex cover of size ≤ |responders|−(S−t).
// We decide that with an exact bounded branch-and-bound vertex-cover
// search (FPT in the budget, which never exceeds t), so adversarial
// accusation patterns can never make the reader spuriously block the
// way a greedy heuristic could.
type conflictGraph struct {
	// selfAccusers are objects k with conflict(k,k): they presented a
	// candidate accusing themselves. They can never sit in a
	// conflict-free subset.
	selfAccusers map[types.ObjectID]bool
	// edges[i][k] records an undirected conflict between distinct i, k.
	edges map[types.ObjectID]map[types.ObjectID]bool
}

func newConflictGraph() *conflictGraph {
	return &conflictGraph{
		selfAccusers: make(map[types.ObjectID]bool),
		edges:        make(map[types.ObjectID]map[types.ObjectID]bool),
	}
}

// addConflict records conflict(accused, reporter): reporter presented a
// round-1 candidate whose matrix accuses accused.
func (g *conflictGraph) addConflict(accused, reporter types.ObjectID) {
	if accused == reporter {
		g.selfAccusers[reporter] = true
		return
	}
	g.addEdge(accused, reporter)
}

func (g *conflictGraph) addEdge(a, b types.ObjectID) {
	if g.edges[a] == nil {
		g.edges[a] = make(map[types.ObjectID]bool)
	}
	if g.edges[b] == nil {
		g.edges[b] = make(map[types.ObjectID]bool)
	}
	g.edges[a][b] = true
	g.edges[b][a] = true
}

// hasConflictFreeSubset reports whether responders contains a subset of
// at least want objects that is pairwise conflict-free.
func (g *conflictGraph) hasConflictFreeSubset(responders []types.ObjectID, want int) bool {
	eligible, edges := g.induced(responders)
	return len(eligible) >= want && coverWithin(edges, make(map[types.ObjectID]bool), len(eligible)-want)
}

// conflictFreeSubset returns a concrete pairwise conflict-free subset of
// responders of size ≥ want, or nil if none exists. Used by tests and by
// diagnostics; the protocol itself only needs existence.
func (g *conflictGraph) conflictFreeSubset(responders []types.ObjectID, want int) []types.ObjectID {
	eligible, edges := g.induced(responders)
	removed := make(map[types.ObjectID]bool)
	if len(eligible) < want || !coverWithin(edges, removed, len(eligible)-want) {
		return nil
	}
	sort.Slice(eligible, func(a, b int) bool { return eligible[a] < eligible[b] })
	var out []types.ObjectID
	for _, id := range eligible {
		if !removed[id] {
			out = append(out, id)
		}
	}
	return out
}

// induced returns the responders that can sit in a conflict-free subset
// (no self-accusers) and the conflict edges among them, sorted so the
// search is deterministic.
func (g *conflictGraph) induced(responders []types.ObjectID) ([]types.ObjectID, [][2]types.ObjectID) {
	eligible := make([]types.ObjectID, 0, len(responders))
	inSet := make(map[types.ObjectID]bool, len(responders))
	for _, id := range responders {
		if !g.selfAccusers[id] {
			eligible = append(eligible, id)
			inSet[id] = true
		}
	}
	var edges [][2]types.ObjectID
	for a, nbrs := range g.edges {
		if !inSet[a] {
			continue
		}
		for b := range nbrs {
			if inSet[b] && a < b {
				edges = append(edges, [2]types.ObjectID{a, b})
			}
		}
	}
	sort.Slice(edges, func(x, y int) bool {
		if edges[x][0] != edges[y][0] {
			return edges[x][0] < edges[y][0]
		}
		return edges[x][1] < edges[y][1]
	})
	return eligible, edges
}

// coverWithin decides whether the edges not yet covered by removed can
// be covered by deleting at most budget more vertices: the classic
// 2-way branching for k-vertex-cover. On success removed holds a cover.
func coverWithin(edges [][2]types.ObjectID, removed map[types.ObjectID]bool, budget int) bool {
	// Find the first uncovered edge.
	var pick [2]types.ObjectID
	found := false
	for _, e := range edges {
		if !removed[e[0]] && !removed[e[1]] {
			pick = e
			found = true
			break
		}
	}
	if !found {
		return true
	}
	if budget == 0 {
		return false
	}
	for _, v := range pick {
		removed[v] = true
		if coverWithin(edges, removed, budget-1) {
			return true
		}
		delete(removed, v)
	}
	return false
}
