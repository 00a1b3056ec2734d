package main

// The workloads' table, the deterministic generator of its contents, and the
// oracle model every result is checked against.

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"pdtstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// Schema columns.
const (
	colKey = 0 // int64 sort key; base rows hold the even keys 0, 2, 4, ...
	colTag = 1 // indexed string, a few distinct values per block
	colA   = 2 // int64 in [0, aDomain): the agg query's filter column
	colB   = 3 // int64
)

const (
	aDomain = 1000
	tagRun  = 2048 // consecutive base rows sharing one tag
	numTags = 49
)

var schema = types.MustSchema([]types.Column{
	{Name: "k", Kind: types.Int64},
	{Name: "tag", Kind: types.String},
	{Name: "a", Kind: types.Int64},
	{Name: "b", Kind: types.Int64},
}, []int{colKey})

var tagNames = func() []string {
	s := make([]string, numTags)
	for i := range s {
		s[i] = fmt.Sprintf("tag-%02d", i)
	}
	return s
}()

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gen derives every generated value from the run's seed.
type gen struct {
	seed uint64
	tags []string // a seeded permutation of tagNames
}

func newGen(seed uint64) gen {
	g := gen{seed: seed, tags: append([]string(nil), tagNames...)}
	rand.New(rand.NewPCG(seed, 0)).Shuffle(numTags, func(i, j int) { g.tags[i], g.tags[j] = g.tags[j], g.tags[i] })
	return g
}

// tag is the tag of key k: runs of tagRun consecutive keys share a tag, and
// the runs cycle through a seeded permutation of numTags tags. A block
// holds a few tags, and each tag recurs every numTags runs, in blocks far
// apart; every tag matches about as many rows as any other.
func (g gen) tag(k int64) string {
	return g.tags[(k/2/tagRun)%numTags]
}

// initial is base row i's starting (a, b).
func (g gen) initial(i int) rowVal {
	h := mix(g.seed + uint64(i))
	return rowVal{a: int64(h % aDomain), b: int64((h >> 32) % 1_000_000)}
}

// rng returns the seeded stream for one client of the run.
func (g gen) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, mix(stream)))
}

type rowVal struct{ a, b int64 }

// rowBytes is the user data size of one stored row: three int64 columns
// plus the tag's bytes.
func rowBytes(tag string) int64 { return 24 + int64(len(tag)) }

// Bytes of user data per key-level write.
const (
	updateBytes = 16 // key + new value
	deleteBytes = 8  // key
)

// model is the oracle: the exact committed contents of the table. Base rows
// (key 2i) are never deleted; odd keys are inserted and deleted by their
// owning client, each in its own map, so concurrent clients on disjoint key
// partitions never touch the same entry.
type model struct {
	g    gen
	base []rowVal
	odd  []map[int64]rowVal
}

func newModel(g gen, rows, owners int) *model {
	m := &model{g: g, base: make([]rowVal, rows), odd: make([]map[int64]rowVal, owners)}
	for i := range m.base {
		m.base[i] = g.initial(i)
	}
	for i := range m.odd {
		m.odd[i] = map[int64]rowVal{}
	}
	return m
}

func (m *model) row(k int64, v rowVal) types.Row {
	return types.Row{types.Int(k), types.Str(m.g.tag(k)), types.Int(v.a), types.Int(v.b)}
}

// lookup returns the committed row of key k, owned by owner if k is odd.
func (m *model) lookup(owner int, k int64) (rowVal, bool) {
	if k%2 == 0 {
		i := int(k / 2)
		if i < len(m.base) {
			return m.base[i], true
		}
		return rowVal{}, false
	}
	v, ok := m.odd[owner][k]
	return v, ok
}

// checkFound compares a FindByKey result with the model.
func (m *model) checkFound(owner int, k int64, row types.Row, found bool) error {
	want, ok := m.lookup(owner, k)
	if found != ok {
		return fmt.Errorf("oracle: FindByKey(%d) found=%v, model says %v", k, found, ok)
	}
	if !found {
		return nil
	}
	if len(row) != 4 || row[colKey].I != k || row[colTag].S != m.g.tag(k) || row[colA].I != want.a || row[colB].I != want.b {
		return fmt.Errorf("oracle: FindByKey(%d) = %v, model says %v", k, row, m.row(k, want))
	}
	return nil
}

// each visits every live row in key order.
func (m *model) each(fn func(k int64, v rowVal)) {
	var odd []int64
	for _, o := range m.odd {
		for k := range o {
			odd = append(odd, k)
		}
	}
	sort.Slice(odd, func(i, j int) bool { return odd[i] < odd[j] })
	j := 0
	for i, v := range m.base {
		k := int64(2 * i)
		for ; j < len(odd) && odd[j] < k; j++ {
			m.eachOdd(odd[j], fn)
		}
		fn(k, v)
	}
	for ; j < len(odd); j++ {
		m.eachOdd(odd[j], fn)
	}
}

func (m *model) eachOdd(k int64, fn func(int64, rowVal)) {
	for _, o := range m.odd {
		if v, ok := o[k]; ok {
			fn(k, v)
			return
		}
	}
}

// digest summarizes a table's contents: row count, an order-sensitive
// checksum over every column, and user bytes.
type digest struct {
	rows  int
	sum   uint64
	bytes int64
}

func (d *digest) add(k int64, tag string, a, b int64) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 1099511628211
	}
	d.sum = d.sum*31 + mix(uint64(k)) ^ mix(uint64(a)<<20^uint64(b)^h)
	d.rows++
	d.bytes += rowBytes(tag)
}

func (m *model) digest() digest {
	var d digest
	m.each(func(k int64, v rowVal) { d.add(k, m.g.tag(k), v.a, v.b) })
	return d
}

// scanDigest reads the whole table through tx in key order.
func scanDigest(tx pdtstore.Tx) (digest, error) {
	var d digest
	err := engine.Scan(tx, colKey, colTag, colA, colB).Run(func(b *vector.Batch, sel []uint32) error {
		k, t, a, bb := b.Vecs[0].I, b.Vecs[1].S, b.Vecs[2].I, b.Vecs[3].I
		for _, i := range sel {
			d.add(k[i], t[i], a[i], bb[i])
		}
		return nil
	})
	return d, err
}

// query is one analytic query of the mix. Every kind projects (a, b) and
// returns the qualifying row count and both sums.
type query struct {
	kind   string // "agg", "range" or "eq"
	lo, hi int64  // agg: a in [lo, hi]; range: k in [lo, hi]
	tag    string // eq: tag = tag
}

var queryKinds = []string{"agg", "range", "eq"}

type answer struct {
	rows       int
	sumA, sumB int64
}

// rangeKeys is the sort-key width of a range query: about 1000 base rows.
const rangeKeys = 2000

// nextQuery draws a query of the given kind; range positions and eq tags
// come from the first baseRows base rows.
func nextQuery(g gen, r *rand.Rand, kind string, baseRows int) query {
	switch kind {
	case "agg":
		lo := int64(r.IntN(100))
		return query{kind: kind, lo: lo, hi: lo + 899}
	case "range":
		lo := 2 * int64(r.IntN(baseRows))
		return query{kind: kind, lo: lo, hi: lo + rangeKeys - 1}
	default:
		return query{kind: kind, tag: g.tag(2 * int64(r.IntN(baseRows)))}
	}
}

// plan builds the query over tx; the filter is the plan's only predicate,
// so pruning (zone maps for agg and range, the index for eq) applies.
func (q query) plan(tx pdtstore.Tx) *engine.Plan {
	p := engine.Scan(tx, colA, colB)
	switch q.kind {
	case "agg":
		return p.FilterInt64Range(colA, q.lo, q.hi)
	case "range":
		return p.FilterInt64Range(colKey, q.lo, q.hi)
	default:
		return p.FilterStrEq(colTag, q.tag)
	}
}

func (q query) run(tx pdtstore.Tx) (answer, error) {
	var ans answer
	err := q.plan(tx).Run(func(b *vector.Batch, sel []uint32) error {
		a, bb := b.Vecs[0].I, b.Vecs[1].I
		for _, i := range sel {
			ans.sumA += a[i]
			ans.sumB += bb[i]
		}
		ans.rows += len(sel)
		return nil
	})
	return ans, err
}

// expect answers q from the model.
func (m *model) expect(q query) answer {
	var ans answer
	m.each(func(k int64, v rowVal) {
		var hit bool
		switch q.kind {
		case "agg":
			hit = v.a >= q.lo && v.a <= q.hi
		case "range":
			hit = k >= q.lo && k <= q.hi
		default:
			hit = m.g.tag(k) == q.tag
		}
		if hit {
			ans.rows++
			ans.sumA += v.a
			ans.sumB += v.b
		}
	})
	return ans
}

// verify checks a quiesced store against the model: a full-table digest and
// one query of each kind.
func (m *model) verify(db *pdtstore.DB, r *rand.Rand) error {
	tx := db.Begin()
	defer tx.Abort()
	got, err := scanDigest(tx)
	if err != nil {
		return fmt.Errorf("verify scan: %w", err)
	}
	if want := m.digest(); got != want {
		return fmt.Errorf("oracle: table digest %+v, model says %+v", got, want)
	}
	for _, kind := range queryKinds {
		q := nextQuery(m.g, r, kind, len(m.base))
		got, err := q.run(tx)
		if err != nil {
			return fmt.Errorf("verify %s query: %w", kind, err)
		}
		if want := m.expect(q); got != want {
			return fmt.Errorf("oracle: %s query %+v = %+v, model says %+v", kind, q, got, want)
		}
	}
	return nil
}
