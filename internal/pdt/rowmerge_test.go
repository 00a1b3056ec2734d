package pdt

import (
	"fmt"
	"math/rand"
	"testing"

	"pdtstore/internal/types"
)

// rowSource supplies stable tuples one at a time, in SID order.
type rowSource interface {
	// NextRow returns the next stable tuple, or ok=false at end of input.
	NextRow() (row types.Row, ok bool)
}

// rowMerge is the paper's Algorithm 2 in its literal tuple-at-a-time form: a
// next() method that passes stable tuples through until the skip counter
// reaches the next update position, then applies the update blindly. The
// block-wise MergeScan supersedes it on the query path; it lives here as
// the test oracle the block-wise merge must agree with exactly, and as the
// readable reference for how positional merging works. It yields the
// visible tuples of a stable row stream merged with a PDT, with their RIDs.
type rowMerge struct {
	t    *PDT
	scan rowSource
	cur  cursor
	rid  uint64
	sid  uint64 // SID of the next stable tuple the source will yield
}

// newRowMerge positions the merge at startSID of the stable image; the
// source must yield exactly the stable tuples from startSID onward.
func newRowMerge(t *PDT, scan rowSource, startSID uint64) *rowMerge {
	cur := t.newCursorAtSid(startSID)
	return &rowMerge{
		t:    t,
		scan: scan,
		cur:  cur,
		rid:  uint64(int64(startSID) + cur.delta),
		sid:  startSID,
	}
}

// Next returns the next visible tuple and its RID; ok=false at the end.
// This is Algorithm 2's next() with the skip counter expressed as the
// SID distance to the cursor's entry.
func (m *rowMerge) Next() (row types.Row, rid uint64, ok bool, err error) {
	for {
		if !m.cur.valid() {
			// No more updates: pure pass-through.
			tuple, more := m.scan.NextRow()
			if !more {
				return nil, 0, false, nil
			}
			m.sid++
			out := m.rid
			m.rid++
			return tuple, out, true, nil
		}
		switch usid := m.cur.sid(); {
		case usid > m.sid:
			// skip > 0: the update is further ahead; pass one tuple through.
			tuple, more := m.scan.NextRow()
			if !more {
				return nil, 0, false, nil
			}
			m.sid++
			out := m.rid
			m.rid++
			return tuple, out, true, nil
		case usid < m.sid:
			return nil, 0, false, fmt.Errorf("pdt: row merge cursor behind scan")
		default:
			switch kind := m.cur.kind(); kind {
			case KindIns:
				tuple := m.t.vals.ins[m.cur.val()].Clone()
				m.cur.advance()
				out := m.rid
				m.rid++
				return tuple, out, true, nil
			case KindDel:
				// delete: do not return the current tuple
				if _, more := m.scan.NextRow(); !more {
					return nil, 0, false, nil
				}
				m.sid++
				m.cur.advance()
			default:
				// modify run: apply every modified column of this tuple
				tuple, more := m.scan.NextRow()
				if !more {
					return nil, 0, false, nil
				}
				tuple = tuple.Clone()
				for m.cur.valid() && m.cur.sid() == usid {
					k := m.cur.kind()
					if k == KindIns || k == KindDel {
						return nil, 0, false, fmt.Errorf("pdt: malformed chain at sid %d", usid)
					}
					tuple[k] = m.t.vals.mods[k][m.cur.val()]
					m.cur.advance()
				}
				m.sid++
				out := m.rid
				m.rid++
				return tuple, out, true, nil
			}
		}
	}
}

type rowSliceSource struct {
	rows []types.Row
	pos  int
}

func (s *rowSliceSource) NextRow() (types.Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func TestRowMergeMatchesReference(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(20)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, p, ref, types.Row{types.Int(15), types.Int(-1), types.Str("i")})
	applyDelete(t, p, ref, 5)
	applyModify(t, p, ref, 8, 1, types.Int(888))
	applyModify(t, p, ref, 8, 2, types.Str("mm"))

	m := newRowMerge(p, &rowSliceSource{rows: stable}, 0)
	var got []types.Row
	for {
		row, rid, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rid != uint64(len(got)) {
			t.Fatalf("rid %d at position %d", rid, len(got))
		}
		got = append(got, row)
	}
	if len(got) != len(ref.rows) {
		t.Fatalf("row merge yielded %d rows, want %d", len(got), len(ref.rows))
	}
	for i := range got {
		if types.CompareRows(got[i], ref.rows[i]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, got[i], ref.rows[i])
		}
	}
}

func TestRowMergeEqualsBlockMergeRandomized(t *testing.T) {
	// The tuple-at-a-time operator (Algorithm 2 verbatim) and the
	// block-oriented MergeScan must yield identical streams.
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		schema := intSchema()
		stable := buildIntTable(30)
		p := New(schema, 3+rng.Intn(5))
		ref := newRefModel(schema, stable)
		randomOps(t, rng, p, ref, 150, false)

		blockOut := mergeAll(t, p, stable)

		m := newRowMerge(p, &rowSliceSource{rows: stable}, 0)
		i := 0
		for {
			row, rid, ok, err := m.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if i >= blockOut.Len() {
				t.Fatalf("row merge yields more rows than block merge (%d)", i)
			}
			if types.CompareRows(row, blockOut.Row(i)) != 0 || rid != blockOut.Rids[i] {
				t.Fatalf("divergence at row %d: row=(%v,%d) block=(%v,%d)",
					i, row, rid, blockOut.Row(i), blockOut.Rids[i])
			}
			i++
		}
		if i != blockOut.Len() {
			t.Fatalf("row merge yields %d rows, block merge %d", i, blockOut.Len())
		}
	}
}

func TestRowMergeMidRangeStart(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(20)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, p, ref, types.Row{types.Int(15), types.Int(-1), types.Str("i")}) // rid 1, sid 1
	applyDelete(t, p, ref, 4)                                                       // stable sid 3

	// Start at stable SID 10: source yields rows 10..19.
	m := newRowMerge(p, &rowSliceSource{rows: stable[10:]}, 10)
	row, rid, ok, err := m.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	// RID of stable sid 10: +1 insert, -1 delete before it → 10.
	if rid != 10 || row[0].I != stable[10][0].I {
		t.Fatalf("first = (%v, rid %d)", row, rid)
	}
	n := 1
	for {
		_, _, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("mid-range merge yielded %d rows, want 10", n)
	}
}
