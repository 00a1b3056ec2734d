package exec

import (
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

type fakeSource struct {
	vals []int64
	pos  int
}

func (f *fakeSource) Next(out *vector.Batch, max int) (int, error) {
	n := 0
	for f.pos < len(f.vals) && n < max {
		out.Vecs[0].I = append(out.Vecs[0].I, f.vals[f.pos])
		out.Rids = append(out.Rids, uint64(f.pos))
		f.pos++
		n++
	}
	return n, nil
}

func TestCollect(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	out, err := Collect(&fakeSource{vals: vals}, []types.Kind{types.Int64}, 7)
	if err != nil || out.Len() != 100 {
		t.Fatalf("collect: %d rows (%v)", out.Len(), err)
	}
	sum := int64(0)
	for _, v := range out.Vecs[0].I {
		sum += v
	}
	if sum != 4950 {
		t.Fatalf("collect sum = %d", sum)
	}
}

type hintedSource struct {
	fakeSource
	hint int
}

func (h *hintedSource) SizeHint() int { return h.hint }

func TestCollectPreSizesFromHint(t *testing.T) {
	vals := make([]int64, 50)
	src := &hintedSource{fakeSource: fakeSource{vals: vals}, hint: len(vals)}
	out, err := Collect(src, []types.Kind{types.Int64}, 8)
	if err != nil || out.Len() != 50 {
		t.Fatalf("collect: %d rows (%v)", out.Len(), err)
	}
	if cap(out.Vecs[0].I) < 50 {
		t.Fatalf("hint ignored: cap = %d", cap(out.Vecs[0].I))
	}
}

func TestAgg(t *testing.T) {
	var a Agg
	for _, x := range []float64{3, 1, 2} {
		a.Add(x)
	}
	if a.Count != 3 || a.Sum != 6 || a.Min != 1 || a.Max != 3 || a.Avg() != 2 {
		t.Fatalf("agg = %+v", a)
	}
	var empty Agg
	if empty.Avg() != 0 {
		t.Fatal("empty avg must be 0")
	}
}

func TestGroupAgg(t *testing.T) {
	g := NewGroupAgg(2)
	data := []struct {
		k string
		v float64
	}{{"b", 1}, {"a", 2}, {"b", 3}}
	for _, d := range data {
		d := d
		cells := g.Touch(d.k, func() types.Row { return types.Row{types.Str(d.k)} })
		cells[0].Add(d.v)
		cells[1].Add(-d.v)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	rs := g.Results()
	if rs[0].Key[0].S != "a" || rs[1].Key[0].S != "b" {
		t.Fatal("results not key-sorted")
	}
	if rs[1].Aggs[0].Sum != 4 || rs[1].Aggs[1].Sum != -4 {
		t.Fatalf("group b aggs = %+v", rs[1].Aggs)
	}
}

func TestGroupKey(t *testing.T) {
	a := GroupKey(types.Str("x"), types.Int(1))
	b := GroupKey(types.Str("x"), types.Int(2))
	if a == b {
		t.Fatal("distinct keys collide")
	}
	if GroupKey(types.Str("x"), types.Int(1)) != a {
		t.Fatal("group key not deterministic")
	}
}

func TestTouchKeyMatchesTouch(t *testing.T) {
	g := NewGroupAgg(1)
	var buf []byte
	for i, k := range []string{"a", "b", "a"} {
		buf = append(buf[:0], k...)
		k := k
		cells := g.TouchKey(buf, func() types.Row { return types.Row{types.Str(k)} })
		cells[0].Add(float64(i))
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	if cells := g.Touch("a", nil); cells[0].Count != 2 || cells[0].Sum != 2 {
		t.Fatalf("group a = %+v", cells[0])
	}
}

func TestFormatRow(t *testing.T) {
	got := FormatRow("x", 1.23456, 7)
	if got != "x|1.23|7" {
		t.Fatalf("FormatRow = %q", got)
	}
}
