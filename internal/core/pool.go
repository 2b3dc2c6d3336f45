package core

import (
	"cadb/internal/index"
	"cadb/internal/optimizer"
)

// candidatePool is the advisor's full candidate set (every structure ×
// compression method), indexed by ID for exact lookups and by StructureID
// for compressed-variant lookups — replacing the linear
// scans over a flat slice that backtracking and the staged baseline used to
// perform per probe.
//
// Insertion order is preserved within each structure group: Recommend seeds
// the pool with the ID-sorted estimation output and then appends merged
// candidates, so variantsOf enumerates variants in exactly the order the old
// sorted-slice scan did — a determinism requirement for backtracking
// tie-breaks.
type candidatePool struct {
	byID     map[string]*optimizer.HypoIndex
	byStruct map[string][]*optimizer.HypoIndex
}

func newCandidatePool(capacity int) *candidatePool {
	return &candidatePool{
		byID:     make(map[string]*optimizer.HypoIndex, capacity),
		byStruct: make(map[string][]*optimizer.HypoIndex, capacity),
	}
}

// add registers a candidate, ignoring duplicates (same ID). Reports
// whether the candidate was inserted.
func (p *candidatePool) add(h *optimizer.HypoIndex) bool {
	id := h.ID()
	if _, ok := p.byID[id]; ok {
		return false
	}
	p.byID[id] = h
	sid := h.StructureID()
	p.byStruct[sid] = append(p.byStruct[sid], h)
	return true
}

// lookup returns the pooled candidate with the definition's exact ID, or nil.
func (p *candidatePool) lookup(d *index.Def) *optimizer.HypoIndex {
	if p == nil {
		return nil
	}
	return p.byID[d.ID()]
}

// variantsOf returns the other compression variants of the member's
// structure, in pool insertion order.
func (p *candidatePool) variantsOf(member *optimizer.HypoIndex) []*optimizer.HypoIndex {
	if p == nil {
		return nil
	}
	group := p.byStruct[member.StructureID()]
	var out []*optimizer.HypoIndex
	for _, h := range group {
		if h != member {
			out = append(out, h)
		}
	}
	return out
}
