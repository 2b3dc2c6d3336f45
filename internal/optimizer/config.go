// Package optimizer implements the simulated query optimizer: cardinality
// estimation from catalog statistics, access-path selection (heap scan,
// clustered/secondary index scan and seek, RID lookups, MV scans, hash
// joins), and — the paper's Appendix A extension — a compression-aware cost
// model with CPU terms for compressing tuples on update
// (α·#tuples_written) and decompressing columns on read
// (β·#tuples_read·#columns_read). The what-if API costs statements under
// hypothetical configurations whose index sizes come from the estimation
// framework.
package optimizer

import (
	"fmt"
	"strings"
	"sync"

	"cadb/internal/catalog"
	"cadb/internal/index"
	"cadb/internal/storage"
)

// normTable is the canonical (lowercase) form of a table name. Every lookup
// keyed by table name — configuration views and the memo's table ordinals,
// which relevance scoping and costing both compare — goes through this one
// normalization, so they agree no matter how a statement or index definition
// spells the name.
func normTable(s string) string { return strings.ToLower(s) }

// HypoIndex is a hypothetical index: a definition plus (possibly estimated)
// size information. The optimizer never needs the index contents — exactly
// like a real what-if interface.
type HypoIndex struct {
	Def *index.Def
	// Rows is the number of leaf entries.
	Rows int64
	// Bytes is the leaf payload under Def.Method.
	Bytes int64
	// UncompressedBytes is the leaf payload before compression.
	UncompressedBytes int64
}

// NewHypoIndex returns a hypothetical index. Sizes may be revised on a copy,
// never in place once the index has been costed — see ResetCostCache.
func NewHypoIndex(d *index.Def, rows, bytes, uncompressedBytes int64) *HypoIndex {
	return &HypoIndex{Def: d, Rows: rows, Bytes: bytes, UncompressedBytes: uncompressedBytes}
}

// ID is Def.ID().
func (h *HypoIndex) ID() string { return h.Def.ID() }

// StructureID is Def.StructureID().
func (h *HypoIndex) StructureID() string { return h.Def.StructureID() }

// Pages returns the leaf page count.
func (h *HypoIndex) Pages() int64 { return storage.PagesForBytes(h.Bytes) }

// CF returns the (estimated) compression fraction.
func (h *HypoIndex) CF() float64 {
	if h.UncompressedBytes == 0 {
		return 1
	}
	return float64(h.Bytes) / float64(h.UncompressedBytes)
}

// FromPhysical wraps a fully built index as a HypoIndex with exact sizes.
func FromPhysical(p *index.Physical) *HypoIndex {
	return NewHypoIndex(p.Def, p.Rows, p.Bytes, p.UncompressedBytes)
}

// String renders the hypothetical index.
func (h *HypoIndex) String() string {
	return fmt.Sprintf("%s [rows=%d pages=%d cf=%.2f]", h.Def, h.Rows, h.Pages(), h.CF())
}

// Configuration is an immutable set of hypothetical indexes (at most one
// clustered index per table). It is a persistent data structure: With,
// Without and Replace return a constant-size node that records the single
// edit and links back to its parent (With is O(1); Without/Replace add an
// O(n) membership scan of the already-materialized receiver), so the greedy
// enumeration's thousands of neighboring configurations share structure
// instead of copying the index slice. A node materializes lazily, each part
// at most once: the ordered index slice when the configuration is listed or
// costed, the per-table, per-ID and per-StructureID lookup maps only when one
// of the lookup methods is called. A what-if neighbor the Evaluator prices is
// never materialized at all. All methods are safe for concurrent use.
type Configuration struct {
	parent *Configuration
	// added / removed record this node's edit relative to parent:
	// With sets added; Without sets removed; Replace sets both (the added
	// index substitutes the removed one in place). occ is how many
	// occurrences of the edited pointer the parent held (Without and
	// Replace act on every occurrence, as the slice-based implementation
	// did), so Len and the SizeBytes delta stay consistent even when a
	// caller inserted the same HypoIndex more than once.
	added   *HypoIndex
	removed *HypoIndex
	occ     int
	// root holds the index list for chain roots (parent == nil).
	root []*HypoIndex
	// n is the index count, maintained eagerly so Len is O(1).
	n int

	listOnce sync.Once
	list     []*HypoIndex
	viewOnce sync.Once
	view     *configView

	// SizeBytes cache: computed once per database in O(1) from the parent's
	// cached size plus this node's delta.
	sizeMu sync.Mutex
	sizeDB *catalog.Database
	size   int64
}

// configView holds the lazily built lookup maps of a configuration. They key
// on the members' identity strings, which each Def renders once.
type configView struct {
	// clustered maps a lowercased table name to its first clustered index.
	clustered map[string]*HypoIndex
	// ids and structs make Contains/ContainsStructure O(1).
	ids     map[string]bool
	structs map[string]bool
}

// NewConfiguration builds a configuration from indexes.
func NewConfiguration(idxs ...*HypoIndex) *Configuration {
	root := make([]*HypoIndex, len(idxs))
	copy(root, idxs)
	return &Configuration{root: root, n: len(root)}
}

// Indexes returns the configuration's indexes in insertion order (Replace
// preserves the replaced member's position). The slice is shared and must
// not be mutated.
func (c *Configuration) Indexes() []*HypoIndex {
	c.listOnce.Do(func() {
		switch {
		case c.parent == nil:
			c.list = c.root
		case c.removed == nil: // With
			p := c.parent.Indexes()
			c.list = make([]*HypoIndex, len(p)+1)
			copy(c.list, p)
			c.list[len(p)] = c.added
		case c.added == nil: // Without
			p := c.parent.Indexes()
			c.list = make([]*HypoIndex, 0, len(p)-1)
			for _, x := range p {
				if x != c.removed {
					c.list = append(c.list, x)
				}
			}
		default: // Replace, in place
			p := c.parent.Indexes()
			c.list = make([]*HypoIndex, len(p))
			for i, x := range p {
				if x == c.removed {
					c.list[i] = c.added
				} else {
					c.list[i] = x
				}
			}
		}
	})
	return c.list
}

// mat returns the lookup maps, building them on first use.
func (c *Configuration) mat() *configView {
	c.viewOnce.Do(func() {
		list := c.Indexes()
		v := &configView{
			clustered: make(map[string]*HypoIndex),
			ids:       make(map[string]bool, len(list)),
			structs:   make(map[string]bool, len(list)),
		}
		for _, x := range list {
			v.ids[x.ID()] = true
			v.structs[x.StructureID()] = true
			if table := normTable(x.Def.Table); x.Def.Clustered && x.Def.MV == nil && v.clustered[table] == nil {
				v.clustered[table] = x
			}
		}
		c.view = v
	})
	return c.view
}

// Len returns the number of indexes in O(1).
func (c *Configuration) Len() int { return c.n }

// With returns the configuration extended with the index. O(1).
func (c *Configuration) With(h *HypoIndex) *Configuration {
	return &Configuration{parent: c, added: h, occ: 1, n: c.n + 1}
}

// Without returns the configuration with every occurrence of the given
// index removed (by pointer identity), as a constant-size node; the
// membership guard scans the receiver's materialized view (already built
// whenever the receiver has been inspected). Returns the receiver when the
// index is not a member.
func (c *Configuration) Without(h *HypoIndex) *Configuration {
	k := c.occurrencesOf(h)
	if k == 0 {
		return c
	}
	return &Configuration{parent: c, removed: h, occ: k, n: c.n - k}
}

// Replace returns the configuration with every occurrence of old swapped
// for new, preserving position, as a constant-size node (membership guard
// as in Without). Returns the receiver when old is not a member.
func (c *Configuration) Replace(old, new *HypoIndex) *Configuration {
	if old == new {
		return c
	}
	k := c.occurrencesOf(old)
	if k == 0 {
		return c
	}
	return &Configuration{parent: c, added: new, removed: old, occ: k, n: c.n}
}

// occurrencesOf counts pointer occurrences.
func (c *Configuration) occurrencesOf(h *HypoIndex) int {
	k := 0
	for _, x := range c.Indexes() {
		if x == h {
			k++
		}
	}
	return k
}

// Contains reports whether an index with the same ID is present.
func (c *Configuration) Contains(d *index.Def) bool {
	return c.mat().ids[d.ID()]
}

// ContainsStructure reports whether any compression variant of the structure
// is present.
func (c *Configuration) ContainsStructure(d *index.Def) bool {
	return c.mat().structs[d.StructureID()]
}

// Clustered returns the clustered index on the table, if any.
func (c *Configuration) Clustered(table string) *HypoIndex {
	return c.mat().clustered[normTable(table)]
}

// sizeContribution is one index's share of SizeBytes: a clustered index
// replaces the table's heap, so it contributes its size minus the heap.
func sizeContribution(x *HypoIndex, db *catalog.Database) int64 {
	if x.Def.Clustered && x.Def.MV == nil {
		if t := db.Table(x.Def.Table); t != nil {
			return x.Bytes - t.HeapBytes()
		}
	}
	return x.Bytes
}

// SizeBytes returns the storage the configuration consumes relative to the
// base database (heaps only). Secondary, partial and MV indexes add their
// full size; a clustered index replaces the table's heap, so it contributes
// its size minus the heap it replaces — which is how compressing a clustered
// index can free space for more indexes even under a 0% budget (Appendix D).
// The result is cached per node and derived from the parent's cached size in
// O(1), so checking every greedy neighbor against the budget no longer
// rescans the whole configuration. The cache reads HypoIndex.Bytes once:
// resizing a member in place afterwards leaves cached sizes stale — replace
// the member with a resized copy instead (see also ResetCostCache).
func (c *Configuration) SizeBytes(db *catalog.Database) int64 {
	c.sizeMu.Lock()
	if c.sizeDB == db {
		s := c.size
		c.sizeMu.Unlock()
		return s
	}
	c.sizeMu.Unlock()

	var s int64
	if c.parent == nil {
		for _, x := range c.root {
			s += sizeContribution(x, db)
		}
	} else {
		s = c.parent.SizeBytes(db)
		if c.removed != nil {
			s -= int64(c.occ) * sizeContribution(c.removed, db)
		}
		if c.added != nil {
			s += int64(c.occ) * sizeContribution(c.added, db)
		}
	}

	c.sizeMu.Lock()
	c.sizeDB, c.size = db, s
	c.sizeMu.Unlock()
	return s
}

// String renders the configuration compactly.
func (c *Configuration) String() string {
	idxs := c.Indexes()
	if len(idxs) == 0 {
		return "{base tables only}"
	}
	parts := make([]string, len(idxs))
	for i, x := range idxs {
		parts[i] = x.Def.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}
