package datalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Relation storage layout.
//
// Rows live in append-only chunks of up to chunkCap tuples; a tuple's ref
// (chunk*chunkCap + slot) never changes while the chunk layout stands
// (only Clear and compaction rebuild it). An open-addressing hash table
// maps the tuple's memoized 64-bit hash to its ref; same-hash collisions
// occupy later probe slots and are disambiguated by full value
// comparison, so degenerate hashes degrade to a scan but never lose set
// semantics. No canonical key strings are retained anywhere in storage.
//
// Both the chunks and the table are copy-on-write. Every relation carries
// a generation; a chunk or table page is writable only by the relation
// whose generation it carries. Clone() is O(1): it shares the chunk list
// and the table and moves the parent to a fresh generation, so whichever
// side mutates next copies exactly the dirty chunk (and the table's
// touched pages) before writing. Freeze() marks a relation immutable —
// mutations panic, reads need no lock — which is what makes snapshot
// publication O(dirty chunks) instead of O(relation).
const (
	// chunkCap is the number of tuple slots per storage chunk.
	chunkCap = 256
	// pageSize is the number of table entries per copy-on-write page.
	pageSize = 128
)

// Table entries store ref+2 so the zero value means "empty" and fresh
// pages need no initialization; 1 is the deletion tombstone.
const (
	storedEmpty uint32 = 0
	storedTomb  uint32 = 1
)

// genCounter issues globally unique relation generations; uniqueness is
// what makes "chunk.gen == relation.gen" a sound ownership test.
var genCounter atomic.Uint64

func nextGen() uint64 { return genCounter.Add(1) }

// chunk is one append-only block of rows. del marks tombstoned slots
// (slots are never reused in place; compaction rebuilds the relation).
type chunk struct {
	gen  uint64
	dead int
	del  [chunkCap / 64]uint64
	rows []Tuple // len is the append count; cap never exceeds chunkCap
}

func (c *chunk) deadAt(slot uint32) bool {
	return c.del[slot/64]&(1<<(slot%64)) != 0
}

// tablePage is one copy-on-write span of the open-addressing table.
type tablePage struct {
	gen  uint64
	hash [pageSize]uint64
	ref  [pageSize]uint32
}

// table is the hash → ref index over the chunks. The pages slice is
// itself copy-on-write (gen guards it, like a page's contents).
type table struct {
	gen   uint64
	tombs int
	pages []*tablePage
}

func (tb *table) capacity() int { return len(tb.pages) * pageSize }

// cowPage returns the page containing entry i, copying it first if it is
// not owned by gen.
func (tb *table) cowPage(i uint32, gen uint64) (*tablePage, uint32) {
	pi := i / pageSize
	p := tb.pages[pi]
	if p.gen != gen {
		np := *p
		np.gen = gen
		p = &np
		tb.pages[pi] = p
	}
	return p, i % pageSize
}

// colIndex is a lazily built hash index on one column: value hash →
// refs. Deletions do not touch it (stale refs are skipped against the
// chunk tombstones at lookup time); past a staleness threshold it is
// rebuilt.
type colIndex struct {
	buckets map[uint64][]uint32
	stale   int
}

// Relation is a set of tuples with a fixed arity, stored in chunked
// copy-on-write tuple storage keyed by tuple hash (see the layout comment
// above). Partitioned (curried) predicates store the partition attribute
// as column 0 and are marked Partitioned so the distribution layer can
// place their subsets on nodes (Sections 3.4 and 3.5 of the paper).
type Relation struct {
	Name        string
	Arity       int
	Partitioned bool

	gen    uint64
	chunks []*chunk
	tab    *table
	live   int
	dead   int

	indexes map[int]*colIndex

	// frozen marks the relation immutable: mutations panic, and any number
	// of goroutines can read the relation concurrently. Snapshot reads
	// rely on this — a frozen clone is published to readers that hold no
	// lock. Index access on a frozen relation goes through frozenIdx, an
	// atomically published immutable col→index map: lookups are lock-free;
	// only the rare construction of a missing index takes idxMu (and
	// republishes a copied map).
	frozen    bool
	idxMu     sync.Mutex
	frozenIdx atomic.Pointer[map[int]*colIndex]

	// pub is the frozen clone Published last handed out. Every mutation
	// drops it, so it is non-nil exactly while the relation still equals
	// what its readers were given.
	pub *Relation
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{
		Name:    name,
		Arity:   arity,
		gen:     nextGen(),
		indexes: map[int]*colIndex{},
	}
}

// Len reports the number of tuples.
func (r *Relation) Len() int { return r.live }

// tupleAt returns the row a ref points at, live or not.
func (r *Relation) tupleAt(ref uint32) Tuple {
	return r.chunks[ref/chunkCap].rows[ref%chunkCap]
}

// liveAt returns the row a ref points at if the slot is still live.
// Index buckets may hold stale refs; the chunk tombstone decides.
func (r *Relation) liveAt(ref uint32) (Tuple, bool) {
	c := r.chunks[ref/chunkCap]
	slot := ref % chunkCap
	if c.deadAt(slot) {
		return Tuple{}, false
	}
	return c.rows[slot], true
}

// find probes the table for the tuple. It returns the probe position (for
// tombstoning) and the stored ref.
func (r *Relation) find(h uint64, t Tuple) (pos, ref uint32, ok bool) {
	tb := r.tab
	if tb == nil {
		return 0, 0, false
	}
	mask := uint32(tb.capacity() - 1)
	i := uint32(h) & mask
	for {
		p := tb.pages[i/pageSize]
		s := p.ref[i%pageSize]
		if s == storedEmpty {
			return 0, 0, false
		}
		if s != storedTomb && p.hash[i%pageSize] == h {
			ref := s - 2
			if r.tupleAt(ref).Equal(t) {
				return i, ref, true
			}
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	_, _, ok := r.find(t.Hash(), t)
	return ok
}

// ensureOwned makes the relation's table struct, pages slice, and chunk
// list privately writable. It is the one-time O(pages + chunks) pointer
// copy a relation pays after a Clone shared its storage; individual pages
// and chunks stay shared until actually written.
func (r *Relation) ensureOwned() {
	if r.tab == nil {
		r.tab = &table{gen: r.gen, pages: []*tablePage{{gen: r.gen}}}
		return
	}
	if r.tab.gen == r.gen {
		return
	}
	nt := &table{gen: r.gen, tombs: r.tab.tombs}
	nt.pages = append(make([]*tablePage, 0, len(r.tab.pages)), r.tab.pages...)
	r.tab = nt
	r.chunks = append(make([]*chunk, 0, len(r.chunks)+1), r.chunks...)
}

// cowChunk returns chunk ci, copying it first if it is not owned. The
// tail chunk is copied with full capacity since it takes appends.
func (r *Relation) cowChunk(ci int) *chunk {
	c := r.chunks[ci]
	if c.gen == r.gen {
		return c
	}
	ncap := len(c.rows)
	if ci == len(r.chunks)-1 && ncap < chunkCap {
		ncap = chunkCap
	}
	nc := &chunk{gen: r.gen, dead: c.dead, del: c.del}
	nc.rows = append(make([]Tuple, 0, ncap), c.rows...)
	r.chunks[ci] = nc
	return nc
}

// appendRow appends the tuple to the tail chunk and returns its ref.
func (r *Relation) appendRow(t Tuple) uint32 {
	if len(r.chunks) == 0 || len(r.chunks[len(r.chunks)-1].rows) == chunkCap {
		r.chunks = append(r.chunks, &chunk{gen: r.gen})
	}
	ci := len(r.chunks) - 1
	c := r.cowChunk(ci)
	c.rows = append(c.rows, t)
	return uint32(ci*chunkCap + len(c.rows) - 1)
}

// tabPut claims the first free probe slot for (h, ref). The caller has
// already verified absence.
func (r *Relation) tabPut(h uint64, ref uint32) {
	tb := r.tab
	mask := uint32(tb.capacity() - 1)
	i := uint32(h) & mask
	for {
		p := tb.pages[i/pageSize]
		s := p.ref[i%pageSize]
		if s == storedEmpty || s == storedTomb {
			p, si := tb.cowPage(i, r.gen)
			p.hash[si] = h
			p.ref[si] = ref + 2
			if s == storedTomb {
				tb.tombs--
			}
			return
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table of newCap entries (a power of two, multiple
// of pageSize), dropping tombstones. Refs are unchanged.
func (r *Relation) grow(newCap int) {
	pages := make([]*tablePage, newCap/pageSize)
	for i := range pages {
		pages[i] = &tablePage{gen: r.gen}
	}
	nt := &table{gen: r.gen, pages: pages}
	mask := uint32(newCap - 1)
	for _, p := range r.tab.pages {
		for si := 0; si < pageSize; si++ {
			s := p.ref[si]
			if s == storedEmpty || s == storedTomb {
				continue
			}
			h := p.hash[si]
			i := uint32(h) & mask
			for {
				np := pages[i/pageSize]
				if np.ref[i%pageSize] == storedEmpty {
					np.hash[i%pageSize] = h
					np.ref[i%pageSize] = s
					break
				}
				i = (i + 1) & mask
			}
		}
	}
	r.tab = nt
}

// Insert adds a tuple, reporting whether it was new.
func (r *Relation) Insert(t Tuple) bool {
	if r.frozen {
		panic(fmt.Sprintf("datalog: insert into frozen relation %s", r.Name))
	}
	if t.Len() != r.Arity {
		panic(fmt.Sprintf("datalog: arity mismatch inserting %v into %s/%d", t, r.Name, r.Arity))
	}
	h := t.Hash()
	if _, _, ok := r.find(h, t); ok {
		return false
	}
	r.ensureOwned()
	if (r.live+r.tab.tombs+1)*4 >= r.tab.capacity()*3 {
		r.grow(r.tab.capacity() * 2)
	}
	r.pub = nil
	ref := r.appendRow(t)
	r.tabPut(h, ref)
	r.live++
	for col, idx := range r.indexes {
		vh := t.At(col).Hash()
		idx.buckets[vh] = append(idx.buckets[vh], ref)
	}
	return true
}

// Delete removes a tuple, reporting whether it was present.
func (r *Relation) Delete(t Tuple) bool {
	if r.frozen {
		panic(fmt.Sprintf("datalog: delete from frozen relation %s", r.Name))
	}
	h := t.Hash()
	pos, ref, ok := r.find(h, t)
	if !ok {
		return false
	}
	r.pub = nil
	r.ensureOwned()
	p, si := r.tab.cowPage(pos, r.gen)
	p.ref[si] = storedTomb
	r.tab.tombs++
	ci := int(ref / chunkCap)
	slot := ref % chunkCap
	c := r.cowChunk(ci)
	c.del[slot/64] |= 1 << (slot % 64)
	c.rows[slot] = Tuple{} // release the row's values
	c.dead++
	r.live--
	r.dead++
	for _, idx := range r.indexes {
		idx.stale++ // buckets are cleaned lazily (liveAt skips tombstones)
	}
	if r.dead > r.live && r.dead >= chunkCap {
		r.compact()
	}
	return true
}

// compact rebuilds chunks and table with only the live rows. Refs change,
// so the column indexes are dropped (they rebuild lazily).
func (r *Relation) compact() {
	old := r.chunks
	r.chunks = nil
	cap := pageSize
	for cap*3 < (r.live+1)*4 {
		cap *= 2
	}
	pages := make([]*tablePage, cap/pageSize)
	for i := range pages {
		pages[i] = &tablePage{gen: r.gen}
	}
	r.tab = &table{gen: r.gen, pages: pages}
	r.live = 0
	r.dead = 0
	for _, c := range old {
		for slot := 0; slot < len(c.rows); slot++ {
			if c.deadAt(uint32(slot)) {
				continue
			}
			t := c.rows[slot]
			ref := r.appendRow(t)
			r.tabPut(t.Hash(), ref)
			r.live++
		}
	}
	r.indexes = map[int]*colIndex{}
}

// Each calls fn for every tuple until fn returns false, in append order.
// The relation must not be mutated during iteration.
func (r *Relation) Each(fn func(Tuple) bool) {
	for _, c := range r.chunks {
		if c.dead == 0 {
			for _, t := range c.rows {
				if !fn(t) {
					return
				}
			}
			continue
		}
		for slot := 0; slot < len(c.rows); slot++ {
			if c.deadAt(uint32(slot)) {
				continue
			}
			if !fn(c.rows[slot]) {
				return
			}
		}
	}
}

// eachRef calls fn for every live tuple with its ref.
func (r *Relation) eachRef(fn func(ref uint32, t Tuple)) {
	for ci, c := range r.chunks {
		for slot := 0; slot < len(c.rows); slot++ {
			if c.dead > 0 && c.deadAt(uint32(slot)) {
				continue
			}
			fn(uint32(ci*chunkCap+slot), c.rows[slot])
		}
	}
}

// All returns all tuples in append order.
func (r *Relation) All() []Tuple {
	out := make([]Tuple, 0, r.live)
	r.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Sorted returns all tuples in the deterministic CompareTuples order.
func (r *Relation) Sorted() []Tuple {
	out := r.All()
	SortTuples(out)
	return out
}

// ensureIndex builds (once) a hash index on the column. On a frozen
// relation the index map is published atomically: the hot path is one
// atomic load with no lock; a missing index is built under idxMu and
// republished as a copied map, and once published an index is never
// mutated again. On a mutable relation an index past the staleness
// threshold (half its refs deleted) is rebuilt.
func (r *Relation) ensureIndex(col int) *colIndex {
	if r.frozen {
		if m := r.frozenIdx.Load(); m != nil {
			if idx, ok := (*m)[col]; ok {
				return idx
			}
		}
		r.idxMu.Lock()
		defer r.idxMu.Unlock()
		var prev map[int]*colIndex
		if m := r.frozenIdx.Load(); m != nil {
			prev = *m
			if idx, ok := prev[col]; ok {
				return idx
			}
		}
		idx := r.buildIndex(col)
		next := make(map[int]*colIndex, len(prev)+1)
		for c, i := range prev {
			next[c] = i
		}
		next[col] = idx
		r.frozenIdx.Store(&next)
		return idx
	}
	if idx, ok := r.indexes[col]; ok {
		if idx.stale <= r.live/2 {
			return idx
		}
	}
	idx := r.buildIndex(col)
	r.indexes[col] = idx
	return idx
}

// buildIndex constructs the column's hash index from the live rows.
func (r *Relation) buildIndex(col int) *colIndex {
	idx := &colIndex{buckets: map[uint64][]uint32{}}
	r.eachRef(func(ref uint32, t Tuple) {
		h := t.At(col).Hash()
		idx.buckets[h] = append(idx.buckets[h], ref)
	})
	return idx
}

// MatchEach iterates tuples whose columns equal the given bound values
// (nil entries are wildcards). Among the bound columns it scans the most
// selective index bucket, which keeps joins on partitioned relations
// (whose partition column is a single huge bucket) linear overall. The
// bound values' hashes are consulted once per call; candidate rows verify
// by direct value comparison, so the match loop allocates nothing.
func (r *Relation) MatchEach(bound []Value, fn func(Tuple) bool) {
	bestCol := -1
	var bestBucket []uint32
	for col, v := range bound {
		if v == nil {
			continue
		}
		idx := r.ensureIndex(col)
		b := idx.buckets[v.Hash()]
		if len(b) == 0 {
			return // no tuple can match
		}
		if bestCol < 0 || len(b) < len(bestBucket) {
			bestCol, bestBucket = col, b
		}
	}
	if bestCol < 0 {
		r.Each(fn)
		return
	}
	for _, ref := range bestBucket {
		t, ok := r.liveAt(ref)
		if !ok {
			continue // stale index entry
		}
		match := true
		for col, v := range bound {
			if v != nil && !ValueEqual(t.At(col), v) {
				match = false
				break
			}
		}
		if match && !fn(t) {
			return
		}
	}
}

// Clear removes all tuples.
func (r *Relation) Clear() {
	if r.frozen {
		panic(fmt.Sprintf("datalog: clear of frozen relation %s", r.Name))
	}
	r.pub = nil
	r.chunks = nil
	r.tab = nil
	r.live = 0
	r.dead = 0
	r.indexes = map[int]*colIndex{}
}

// Clone returns a copy-on-write copy sharing the receiver's chunks and
// table: O(1) regardless of relation size. Both sides then copy exactly
// the storage they dirty before writing it (tuples themselves are shared
// outright; they are immutable). The clone starts unfrozen with no
// indexes.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		Name:        r.Name,
		Arity:       r.Arity,
		Partitioned: r.Partitioned,
		gen:         nextGen(),
		chunks:      r.chunks,
		tab:         r.tab,
		live:        r.live,
		dead:        r.dead,
		indexes:     map[int]*colIndex{},
	}
	if !r.frozen {
		// Move the parent off the shared generation too: its next write
		// copies the dirty chunk/page instead of mutating shared storage.
		r.gen = nextGen()
	}
	return c
}

// Freeze marks the relation immutable. Afterwards any number of
// goroutines may read it concurrently (index lookups are lock-free once
// built); mutations panic. Freezing is one-way and must happen before
// the relation is shared. Indexes built while mutable carry over.
func (r *Relation) Freeze() {
	if r.frozen {
		return
	}
	if len(r.indexes) > 0 {
		seed := make(map[int]*colIndex, len(r.indexes))
		for c, i := range r.indexes {
			seed[c] = i
		}
		r.frozenIdx.Store(&seed)
	}
	r.frozen = true
}

// Published returns a frozen clone of the relation for lock-free readers.
// It clones only when the relation was mutated (a new tuple inserted, a
// present one deleted, or a Clear) since the previous call; otherwise it
// hands out the same frozen object again, so the indexes its readers
// built stay warm. fresh reports whether this call cloned. The caller
// serializes Published with the relation's mutations.
func (r *Relation) Published() (frozen *Relation, fresh bool) {
	if r.pub != nil {
		return r.pub, false
	}
	r.pub = r.Clone()
	r.pub.Freeze()
	return r.pub, true
}

// StorageStats describes a relation's physical layout, for benchmarks
// and tests that assert copy-on-write behavior.
type StorageStats struct {
	Chunks      int // total chunks referenced
	OwnedChunks int // chunks this relation may write in place
	Live        int // live rows
	Dead        int // tombstoned rows awaiting compaction
	TableCap    int // open-addressing table capacity (entries)
	OwnedPages  int // table pages this relation may write in place
}

// Stats reports the relation's storage layout. After a Clone, OwnedChunks
// and OwnedPages count exactly the storage this side has dirtied.
func (r *Relation) Stats() StorageStats {
	st := StorageStats{Chunks: len(r.chunks), Live: r.live, Dead: r.dead}
	for _, c := range r.chunks {
		if c.gen == r.gen {
			st.OwnedChunks++
		}
	}
	if r.tab != nil {
		st.TableCap = r.tab.capacity()
		if r.tab.gen == r.gen {
			for _, p := range r.tab.pages {
				if p.gen == r.gen {
					st.OwnedPages++
				}
			}
		}
	}
	return st
}

// Database is a set of relations keyed by predicate name. It is the
// "workspace" storage of Section 3.1; the transactional layer lives in
// internal/workspace.
type Database struct {
	rels map[string]*Relation
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{rels: map[string]*Relation{}} }

// Rel returns the relation for name, creating it with the given arity if
// absent. It panics with a *CheckError (code LB-ARITY-003) if the name
// exists with a different arity, which indicates a schema error upstream.
func (db *Database) Rel(name string, arity int) *Relation {
	if r, ok := db.rels[name]; ok {
		if r.Arity != arity {
			panic(&CheckError{
				Code: CodeStoreArity,
				Msg:  fmt.Sprintf("predicate %s stored with arity %d but accessed with arity %d", name, r.Arity, arity),
			})
		}
		return r
	}
	r := NewRelation(name, arity)
	db.rels[name] = r
	return r
}

// Get returns the relation if it exists.
func (db *Database) Get(name string) (*Relation, bool) {
	r, ok := db.rels[name]
	return r, ok
}

// Names returns all predicate names, sorted.
func (db *Database) Names() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Drop removes a relation entirely.
func (db *Database) Drop(name string) { delete(db.rels, name) }

// Put installs a relation under its own name, replacing any existing one.
// Snapshot publication uses it to assemble databases out of frozen
// relation versions.
func (db *Database) Put(r *Relation) { db.rels[r.Name] = r }

// Shallow returns a database with a fresh relation map sharing the
// receiver's relations. Transient evaluations (pattern queries against a
// frozen snapshot) use it as an overlay: new relations — the query's
// result — land in the private map and never touch the shared snapshot.
func (db *Database) Shallow() *Database {
	c := &Database{rels: make(map[string]*Relation, len(db.rels)+1)}
	for n, r := range db.rels {
		c.rels[n] = r
	}
	return c
}

// Clone copies the database; each relation is a copy-on-write clone.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for n, r := range db.rels {
		c.rels[n] = r.Clone()
	}
	return c
}

// TupleCount returns the total number of stored tuples.
func (db *Database) TupleCount() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}
