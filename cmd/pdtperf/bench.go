package main

// The three workloads and the restart cycle, driven through the store's
// public surface only: pdtstore.Open/Begin/Checkpoint/Stats/Close, Tx,
// engine.Scan plans, types and table.Op.

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pdtstore"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // measured time, over all segments
	trace    bool
	out      string // directory for the store and the trace file
	log      io.Writer

	// Sizes; newConfig fills the defaults. A run is segments rounds of: a
	// window of window/segments, then quiet, then cycles restart cycles.
	rows     int           // base rows loaded at setup
	setups   int           // setups per run; setup_s is their median
	segments int           // rounds per run
	quiet    time.Duration // query mix on the quiesced store (oltp-trickle)
	cycles   int           // restart cycles
	tailTxns int           // fsynced transactions per restart cycle
}

// workload is one traffic shape. Both run with the background checkpoint
// scheduler on during the window.
type workload struct {
	shards int
	owners int // model partitions (one per writing client)
	// run drives the measured window until deadline.
	run func(b *bench, w *window, deadline time.Time) error
	// work lists a window's finished work, the unit of the tracing overhead.
	work func(w *window) samples
}

var workloads = map[string]workload{
	"oltp-trickle": {shards: 1, owners: oltpClients, run: (*bench).oltp, work: func(w *window) samples { return w.txns }},
	"htap-scan":    {shards: 2, owners: 1, run: (*bench).htap, work: func(w *window) samples { return w.allQueries }},
}

const oltpClients = 2

func newConfig(name string, seed uint64, window time.Duration, trace bool) (config, error) {
	if _, ok := workloads[name]; !ok {
		return config{}, fmt.Errorf("unknown workload %q", name)
	}
	return config{
		workload: name, seed: seed, window: window, trace: trace,
		out: ".bench_out", log: os.Stdout,
		rows: 500_000, setups: 3, segments: 5, quiet: time.Second, cycles: 6, tailTxns: 32,
	}, nil
}

// bench is the state of one run.
type bench struct {
	cfg  config
	wl   workload
	g    gen
	m    *model
	dir  string
	opts pdtstore.Options
	db   *pdtstore.DB
	t0   time.Time
	ids  atomic.Uint64
	recs []*recorder // every traced client's spans
	cs   cycleStats
	// Seeded streams that carry on across segments: vr draws the queries of
	// quiesced verification, cr the restart cycles' keys and queries, qr the
	// query clients' queries and wr the htap-scan writer's inputs.
	vr, cr, qr, wr *rand.Rand
	clients        []*oltpClient
}

func newBench(cfg config) *bench {
	wl := workloads[cfg.workload]
	b := &bench{cfg: cfg, wl: wl, g: newGen(cfg.seed), t0: time.Now()}
	b.dir = filepath.Join(cfg.out, "store-"+cfg.workload)
	b.opts = pdtstore.Options{
		Schema:       schema,
		Compressed:   true,
		Shards:       wl.shards,
		IndexColumns: []int{colTag},
		Checkpoint:   pdtstore.CheckpointOptions{Auto: true},
	}
	if wl.shards > 1 {
		// Split at the key of base row rows/2: two equal halves.
		b.opts.ShardKeys = []types.Row{{types.Int(int64(2 * (cfg.rows / 2)))}}
	}
	b.vr, b.cr, b.qr, b.wr = b.g.rng(1<<40), b.g.rng(1<<41), b.g.rng(1<<42), b.g.rng(1<<43)
	for c := 0; c < oltpClients; c++ {
		cl := &oltpClient{
			b: b, id: c, r: b.g.rng(uint64(c)),
			lo:  c * cfg.rows / oltpClients,
			hi:  (c + 1) * cfg.rows / oltpClients,
			pos: map[int64]int{},
		}
		cl.zipf = rand.NewZipf(cl.r, 1.1, 1, uint64(cl.hi-cl.lo-1))
		b.clients = append(b.clients, cl)
	}
	return b
}

// recorder returns a fresh span recorder for one client of w when w is
// traced, else nil.
func (b *bench) recorder(w *window) *recorder {
	if !w.traced {
		return nil
	}
	r := &recorder{t0: b.t0}
	w.recs = append(w.recs, r)
	b.recs = append(b.recs, r)
	return r
}

// setup bootstraps the store, loads cfg.rows base rows in one transaction
// and takes the first checkpoint, cfg.setups times; the last store stays
// open. It returns each setup's duration.
func (b *bench) setup() ([]float64, error) {
	var times []float64
	for i := 0; i < b.cfg.setups; i++ {
		if b.db != nil {
			if err := b.db.Close(); err != nil {
				return nil, fmt.Errorf("close setup store: %w", err)
			}
			b.db = nil
		}
		if err := os.RemoveAll(b.dir); err != nil {
			return nil, err
		}
		b.m = newModel(b.g, b.cfg.rows, b.wl.owners)
		runtime.GC()
		start := time.Now()
		db, err := b.load()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		b.db = db
	}
	return times, nil
}

func (b *bench) load() (*pdtstore.DB, error) {
	db, err := pdtstore.Open(b.dir, b.opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	tx := db.Begin()
	const chunk = 1 << 15
	ops := make([]table.Op, 0, chunk)
	for lo := 0; lo < b.cfg.rows; lo += chunk {
		ops = ops[:0]
		for i := lo; i < min(lo+chunk, b.cfg.rows); i++ {
			ops = append(ops, table.Op{Kind: table.OpInsert, Row: b.m.row(int64(2*i), b.m.base[i])})
		}
		if _, err := tx.ApplyBatch(ops); err != nil {
			db.Close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	if err := tx.Commit(); err != nil {
		db.Close()
		return nil, fmt.Errorf("load commit: %w", err)
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, fmt.Errorf("first checkpoint: %w", err)
	}
	return db, nil
}

// window collects the measurements of one segment, or of a run's segments
// added together.
type window struct {
	seg                          int // segment the window's samples belong to
	start                        time.Time
	elapsed                      time.Duration
	txns                         samples
	attempted, committed, failed int64
	userBytes                    int64
	queries                      map[string]samples // by kind
	allQueries                   samples
	lateMs                       []float64 // open-loop writer: start minus due time
	io                           procIO
	allocs, gcs                  uint64
	rssPeak                      float64 // bytes
	traced                       bool
	alternate                    bool // traced in odd seconds only
	recs                         []*recorder
	qt                           map[string]*queryTrace
	queryAllocs                  []float64 // heap bytes allocated per traced query
	mon                          monitored
	// work finished in whole untraced (even) and traced (odd) seconds of
	// alternating windows, and the count of such seconds.
	workDone, workSecs [2]float64
}

func newWindow() *window { return &window{start: time.Now(), queries: map[string]samples{}} }

// part returns an empty window for one client of w.
func (w *window) part() *window {
	p := newWindow()
	p.seg, p.start, p.traced, p.alternate = w.seg, w.start, w.traced, w.alternate
	return p
}

// tracing returns rec if the operation starting now is traced, else nil.
// A window that alternates traces its odd seconds only, so untraced and
// traced work interleave and see the same drift of the host's speed.
func (w *window) tracing(rec *recorder) *recorder {
	if w.alternate && int(time.Since(w.start)/time.Second)%2 == 0 {
		return nil
	}
	return rec
}

// sample is one timed operation: its segment, when it finished from its
// window's start, and how long it took.
type sample struct {
	seg int
	at  time.Duration
	ms  float64
}

type samples []sample

func (w *window) sample(lat time.Duration) sample { return sample{w.seg, time.Since(w.start), ms(lat)} }

// bySegment returns the q-quantile of each segment's samples, and the
// median over the segments: a stretch of noise from the host moves one
// segment, not the result.
func (s samples) bySegment(q float64) float64 {
	segs := map[int][]float64{}
	for _, x := range s {
		segs[x.seg] = append(segs[x.seg], x.ms)
	}
	var qs []float64
	for _, v := range segs {
		qs = append(qs, quantile(v, q))
	}
	return quantile(qs, 0.5)
}

// add merges a client's or a segment's window into w.
func (w *window) add(c *window) {
	w.elapsed += c.elapsed
	w.io = procIO{w.io.rchar + c.io.rchar, w.io.wchar + c.io.wchar, w.io.syscw + c.io.syscw}
	w.allocs += c.allocs
	w.gcs += c.gcs
	w.rssPeak = max(w.rssPeak, c.rssPeak)
	w.recs = append(w.recs, c.recs...)
	w.mon.add(c.mon)
	for i := range w.workDone {
		w.workDone[i] += c.workDone[i]
		w.workSecs[i] += c.workSecs[i]
	}
	w.txns = append(w.txns, c.txns...)
	w.attempted += c.attempted
	w.committed += c.committed
	w.failed += c.failed
	w.userBytes += c.userBytes
	for k, v := range c.queries {
		w.queries[k] = append(w.queries[k], v...)
	}
	w.allQueries = append(w.allQueries, c.allQueries...)
	w.lateMs = append(w.lateMs, c.lateMs...)
	w.queryAllocs = append(w.queryAllocs, c.queryAllocs...)
	for kind, t := range c.qt {
		k := w.kind(kind)
		k.rowsOut = append(k.rowsOut, t.rowsOut...)
		k.zoneSkips = append(k.zoneSkips, t.zoneSkips...)
		k.indexSkips = append(k.indexSkips, t.indexSkips...)
		k.pruneRatio = append(k.pruneRatio, t.pruneRatio...)
	}
}

// queryTrace holds one query kind's traced counters, one sample per query.
type queryTrace struct {
	rowsOut, zoneSkips, indexSkips, pruneRatio []float64
}

// kind returns the traced counters of one query kind.
func (w *window) kind(kind string) *queryTrace {
	if w.qt == nil {
		w.qt = map[string]*queryTrace{}
	}
	if w.qt[kind] == nil {
		w.qt[kind] = &queryTrace{}
	}
	return w.qt[kind]
}

// measure runs segment seg's window of the workload for d. A traced window
// records spans in its odd seconds.
func (b *bench) measure(traced bool, d time.Duration, seg int) (*window, error) {
	// Return the heap the set-up and the checks left behind to the OS, so
	// the window's RSS peak is the window's own.
	debug.FreeOSMemory()
	w := newWindow()
	w.seg, w.traced, w.alternate = seg, traced, traced
	var mon *statsMonitor
	if traced {
		mon = startStatsMonitor(b.db, b.dir)
	}
	io0 := readProcIO()
	a0, g0 := goCounters()
	rss := startRSS()
	w.start = time.Now()
	err := b.wl.run(b, w, w.start.Add(d))
	w.elapsed = time.Since(w.start)
	w.rssPeak = rss.finish()
	a1, g1 := goCounters()
	w.io = readProcIO().sub(io0)
	w.allocs, w.gcs = a1-a0, g1-g0
	if mon != nil {
		w.mon = mon.finish()
		// The first two seconds are warm-up.
		n := int(w.elapsed / time.Second)
		for i := 2; i < n; i++ {
			w.workSecs[i%2]++
		}
		for _, x := range b.wl.work(w) {
			if i := int(x.at / time.Second); i >= 2 && i < n {
				w.workDone[i%2]++
			}
		}
	}
	return w, err
}

// ---- oltp-trickle ----

// oltp runs oltpClients closed-loop clients, each on its own contiguous
// partition of the base rows, so no two transactions can conflict.
func (b *bench) oltp(w *window, deadline time.Time) error {
	var wg sync.WaitGroup
	errs := make([]error, oltpClients)
	parts := make([]*window, oltpClients)
	for c, cl := range b.clients {
		parts[c] = w.part()
		cl.w, cl.rec = parts[c], b.recorder(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := cl.txn(); err != nil {
					errs[cl.id] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for c := range parts {
		w.add(parts[c])
		if errs[c] != nil {
			return errs[c]
		}
	}
	return nil
}

type oltpClient struct {
	b      *bench
	id     int
	w      *window
	rec    *recorder
	r      *rand.Rand
	zipf   *rand.Zipf
	lo, hi int // base row partition [lo, hi)
	// inserted lists the odd keys this client inserted and has not deleted;
	// pos indexes it for O(1) removal.
	inserted []int64
	pos      map[int64]int
}

// hotStride scatters Zipf ranks over the partition, so hot keys land in
// many blocks rather than one; it is prime and larger than any partition.
const hotStride = 1_000_003

// txn runs one transaction: Begin, FindByKey, one write, Commit.
func (c *oltpClient) txn() error {
	m := c.b.m
	size := c.hi - c.lo
	var kind table.OpKind
	var key int64
	var val rowVal // the row's values after the write
	var col int
	var newVal int64
	switch p := c.r.IntN(10); {
	case p == 1 && len(c.inserted) > 0:
		kind = table.OpDelete
		key = c.inserted[c.r.IntN(len(c.inserted))]
	case p <= 1:
		kind = table.OpInsert
		i := c.lo + c.r.IntN(size)
		for {
			key = int64(2*i + 1)
			if _, taken := m.odd[c.id][key]; !taken {
				break
			}
			i = c.lo + (i-c.lo+1)%size
		}
		val = rowVal{a: int64(c.r.IntN(aDomain)), b: int64(c.r.IntN(1_000_000))}
	default:
		kind = table.OpUpdate
		i := c.lo + int((c.zipf.Uint64()*hotStride)%uint64(size))
		key = int64(2 * i)
		val, _ = m.lookup(c.id, key)
		col = colA + c.r.IntN(2)
		if col == colA {
			newVal = int64(c.r.IntN(aDomain))
			val.a = newVal
		} else {
			newVal = int64(c.r.IntN(1_000_000))
			val.b = newVal
		}
	}
	k := types.Row{types.Int(key)}
	var row types.Row
	var found, probed bool
	hit := true // the write found its key
	ok := c.b.doTxn(c.w, c.w.tracing(c.rec), -1, time.Now(), func(t *txnRun) (err error) {
		s := t.span("txn.find")
		_, row, found, err = t.FindByKey(k)
		t.rec.close(s)
		if err != nil {
			return err
		}
		probed = true
		s = t.span("txn.write")
		defer t.rec.close(s)
		switch kind {
		case table.OpInsert:
			return t.Insert(m.row(key, val))
		case table.OpDelete:
			hit, err = t.DeleteByKey(k)
		default:
			hit, err = t.UpdateByKey(k, col, types.Int(newVal))
		}
		return err
	})
	if probed {
		if err := m.checkFound(c.id, key, row, found); err != nil {
			return err
		}
	}
	if !ok {
		return nil
	}
	if !hit {
		return fmt.Errorf("oracle: write to key %d found no row, model holds it", key)
	}
	switch kind {
	case table.OpInsert:
		m.odd[c.id][key] = val
		c.pos[key] = len(c.inserted)
		c.inserted = append(c.inserted, key)
		c.w.userBytes += rowBytes(m.g.tag(key))
	case table.OpDelete:
		delete(m.odd[c.id], key)
		j := c.pos[key]
		last := c.inserted[len(c.inserted)-1]
		c.inserted[j] = last
		c.pos[last] = j
		c.inserted = c.inserted[:len(c.inserted)-1]
		delete(c.pos, key)
		c.w.userBytes += deleteBytes
	default:
		m.base[key/2] = val
		c.w.userBytes += updateBytes
	}
	return nil
}

// ---- htap-scan ----

// htap runs one closed-loop query client against one open-loop writer.
func (b *bench) htap(w *window, deadline time.Time) error {
	ww, qw := w.part(), w.part()
	wrec, qrec := b.recorder(w), b.recorder(w)
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = b.htapWriter(ww, wrec, deadline)
	}()
	qerr := b.htapQueries(qw, qrec, deadline)
	wg.Wait()
	w.add(ww)
	w.add(qw)
	if werr != nil {
		return werr
	}
	return qerr
}

// htapQueries runs the agg, range, eq mix round-robin until deadline.
func (b *bench) htapQueries(w *window, rec *recorder, deadline time.Time) error {
	for i := 0; time.Now().Before(deadline); i++ {
		q := nextQuery(b.g, b.qr, queryKinds[i%len(queryKinds)], b.cfg.rows)
		if _, err := b.runQuery(w, w.tracing(rec), -1, q); err != nil {
			return err
		}
	}
	return nil
}

// recentKeys is how far back from the top of the key space the htap-scan
// writer's updates reach.
const recentKeys = 1000

const writeRate = 200 // htap-scan writer, transactions per second

// htapWriter issues writeRate transactions per second on a fixed
// schedule, whatever the store's latency: each appends a fresh key at the
// top of the key space and updates a recent key. Latency counts from the
// transaction's due time, so a stall also delays the ones queued behind it.
func (b *bench) htapWriter(w *window, wrec *recorder, deadline time.Time) error {
	m, r := b.m, b.wr
	period := time.Second / writeRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lateMs = append(w.lateMs, ms(time.Since(due)))
		n := len(m.base)
		fresh := rowVal{a: int64(r.IntN(aDomain)), b: int64(r.IntN(1_000_000))}
		ri := n - 1 - r.IntN(min(recentKeys, n))
		rk := int64(2 * ri)
		upd := int64(r.IntN(1_000_000))

		var row types.Row
		var found, probed, hit bool
		rkey := types.Row{types.Int(rk)}
		ok := b.doTxn(w, w.tracing(wrec), -1, due, func(t *txnRun) (err error) {
			s := t.span("txn.write")
			err = t.Insert(m.row(int64(2*n), fresh))
			t.rec.close(s)
			if err != nil {
				return err
			}
			s = t.span("txn.find")
			_, row, found, err = t.FindByKey(rkey)
			t.rec.close(s)
			if err != nil {
				return err
			}
			probed = true
			s = t.span("txn.write")
			hit, err = t.UpdateByKey(rkey, colB, types.Int(upd))
			t.rec.close(s)
			return err
		})
		if probed {
			if err := m.checkFound(0, rk, row, found); err != nil {
				return err
			}
		}
		if !ok {
			continue
		}
		if !hit {
			return fmt.Errorf("oracle: update of key %d found no row, model holds it", rk)
		}
		m.base = append(m.base, fresh)
		m.base[ri].b = upd
		w.userBytes += rowBytes(m.g.tag(int64(2*n))) + updateBytes
	}
}

// txnRun is one transaction in flight: its Tx and where its spans go.
type txnRun struct {
	pdtstore.Tx
	rec  *recorder
	id   uint64
	root int
}

// span opens a span of the transaction's under its root; rec.close ends it.
func (t *txnRun) span(name string) int { return t.rec.open(name, t.id, t.root) }

// doTxn runs one transaction and counts it in w: Begin, then body, then
// Commit, or Abort if body failed, each in a span under parent when rec is
// set. It reports whether the transaction committed, and records the
// latency of a committed one from from. A failed transaction counts in
// w.failed.
func (b *bench) doTxn(w *window, rec *recorder, parent int, from time.Time, body func(t *txnRun) error) bool {
	w.attempted++
	t := &txnRun{rec: rec, id: b.ids.Add(1)}
	t.root = rec.open("txn", t.id, parent)
	s := t.span("txn.begin")
	t.Tx = b.db.Begin()
	rec.close(s)
	err := body(t)
	if err == nil {
		s = t.span("txn.commit")
		err = t.Commit()
		rec.close(s)
	} else {
		t.Abort()
	}
	rec.close(t.root)
	lat := time.Since(from)
	if err != nil {
		w.failed++
		return false
	}
	w.committed++
	w.txns = append(w.txns, w.sample(lat))
	return true
}

// runQuery runs q in its own transaction, records its latency into w and,
// when rec is set, its spans and per-query counters.
func (b *bench) runQuery(w *window, rec *recorder, parent int, q query) (answer, error) {
	var st0 pdtstore.Stats
	var a0 uint64
	if rec != nil {
		st0 = b.db.Stats()
		a0, _ = goCounters()
	}
	id := b.ids.Add(1)
	start := time.Now()
	root := rec.open("query", id, parent)
	s := rec.open("txn.begin", id, root)
	tx := b.db.Begin()
	rec.close(s)
	s = rec.open("engine.run."+q.kind, id, root)
	ans, err := q.run(tx)
	rec.close(s)
	s = rec.open("txn.abort", id, root)
	aerr := tx.Abort()
	rec.close(s)
	rec.close(root)
	d := time.Since(start)
	if err == nil {
		err = aerr
	}
	if err != nil {
		return ans, fmt.Errorf("%s query: %w", q.kind, err)
	}
	w.queries[q.kind] = append(w.queries[q.kind], w.sample(d))
	w.allQueries = append(w.allQueries, w.sample(d))
	if rec != nil {
		a1, _ := goCounters()
		st1 := b.db.Stats()
		zone := st1.ZoneSkippedBlocks - st0.ZoneSkippedBlocks
		index := st1.IndexSkippedBlocks - st0.IndexSkippedBlocks
		t := w.kind(q.kind)
		t.rowsOut = append(t.rowsOut, float64(ans.rows))
		t.zoneSkips = append(t.zoneSkips, float64(zone))
		t.indexSkips = append(t.indexSkips, float64(index))
		if n := stableBlocks(st1); n > 0 {
			t.pruneRatio = append(t.pruneRatio, float64(zone+index)/float64(n))
		}
		w.queryAllocs = append(w.queryAllocs, float64(a1-a0))
	}
	return ans, nil
}

// stableBlocks counts the row blocks of the stable images: each live
// (column, block) cell of a shard's chain is one column of one block.
func stableBlocks(st pdtstore.Stats) int {
	n := 0
	for _, sh := range st.Shard {
		for _, seg := range sh.Segments {
			n += seg.LiveBlocks
		}
	}
	return n / schema.NumCols()
}

// ---- restart cycles ----

// cycleStats collects the restart cycles of a run.
type cycleStats struct {
	openMs, coldMs, ckptMs []float64
	rcharOpen, rcharCold   []float64
	replayed, dirty        []float64
	spaceAmp               []float64 // store bytes per live user byte after each checkpoint
	tailMax, genMax        int
}

func (cs *cycleStats) observe(st pdtstore.Stats) {
	for _, sh := range st.Shard {
		cs.tailMax = max(cs.tailMax, int(sh.WALRecords))
		cs.genMax = max(cs.genMax, sh.Generations)
	}
}

// cycleOpts are the options of the restart cycles' cold opens: the
// scheduler stays off, so each open replays exactly the cycle's tail.
func (b *bench) cycleOpts() pdtstore.Options {
	o := b.opts
	o.Checkpoint.Auto = false
	return o
}

// reopen closes the store and opens it again with opts.
func (b *bench) reopen(opts pdtstore.Options) error {
	err := b.db.Close()
	b.db = nil
	if err != nil {
		return err
	}
	b.db, err = pdtstore.Open(b.dir, opts)
	return err
}

// cycle commits cfg.tailTxns fsynced transactions, closes the store, opens
// it cold (replaying the tail and rebuilding the index), runs one query of
// each kind on the cold buffer pool, checks the whole table against the
// model, and checkpoints. The queries run before the table check so that
// they, not the check, are the first reads after Open.
func (b *bench) cycle(w *window, rec *recorder) error {
	cs, r := &b.cs, b.cr
	id := b.ids.Add(1)
	root := rec.open("cycle", id, -1)
	defer rec.close(root)
	for j := 0; j < b.cfg.tailTxns; j++ {
		if err := b.tailTxn(w, rec, root, r); err != nil {
			return err
		}
	}
	cs.observe(b.db.Stats())

	s := rec.open("pdtstore.close", id, root)
	err := b.db.Close()
	rec.close(s)
	b.db = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	io0 := readProcIO()
	start := time.Now()
	s = rec.open("pdtstore.open", id, root)
	db, err := pdtstore.Open(b.dir, b.cycleOpts())
	rec.close(s)
	d := time.Since(start)
	io1 := readProcIO()
	if err != nil {
		return fmt.Errorf("cold open: %w", err)
	}
	b.db = db
	cs.openMs = append(cs.openMs, ms(d))
	cs.rcharOpen = append(cs.rcharOpen, float64(io1.rchar-io0.rchar))
	var replayed uint64
	for _, sh := range db.Stats().Shard {
		replayed += sh.WALRecords
	}
	cs.replayed = append(cs.replayed, float64(replayed))

	for qi, kind := range queryKinds {
		q := nextQuery(b.g, r, kind, len(b.m.base))
		io0 := readProcIO()
		n := len(w.allQueries)
		ans, err := b.runQuery(w, rec, root, q)
		if err != nil {
			return err
		}
		if qi == 0 {
			cs.coldMs = append(cs.coldMs, w.allQueries[n].ms)
			cs.rcharCold = append(cs.rcharCold, float64(readProcIO().rchar-io0.rchar))
		}
		if want := b.m.expect(q); ans != want {
			return fmt.Errorf("oracle: cold %s query %+v after open = %+v, model says %+v", kind, q, ans, want)
		}
	}
	live, err := b.checkDigest()
	if err != nil {
		return fmt.Errorf("after cold open: %w", err)
	}

	start = time.Now()
	s = rec.open("pdtstore.checkpoint", id, root)
	err = db.Checkpoint()
	rec.close(s)
	d = time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	cs.ckptMs = append(cs.ckptMs, ms(d))
	st := db.Stats()
	dirty := 0
	for _, sh := range st.Shard {
		dirty += sh.LastDecision.DirtyBlocks
	}
	cs.dirty = append(cs.dirty, float64(dirty))
	cs.observe(st)
	cs.spaceAmp = append(cs.spaceAmp, float64(dirBytes(b.dir))/float64(live.bytes))
	return nil
}

// tailTxn updates one key on each side of the shard split (one per shard
// on a two-shard store) and commits.
func (b *bench) tailTxn(w *window, rec *recorder, parent int, r *rand.Rand) error {
	m := b.m
	half := b.cfg.rows / 2
	i0, i1 := r.IntN(half), half+r.IntN(len(m.base)-half)
	va, vb := int64(r.IntN(aDomain)), int64(r.IntN(1_000_000))
	var ok0, ok1 bool
	if !b.doTxn(w, rec, parent, time.Now(), func(t *txnRun) (err error) {
		s := t.span("txn.write")
		ok0, err = t.UpdateByKey(types.Row{types.Int(int64(2 * i0))}, colA, types.Int(va))
		t.rec.close(s)
		if err != nil {
			return err
		}
		s = t.span("txn.write")
		ok1, err = t.UpdateByKey(types.Row{types.Int(int64(2 * i1))}, colB, types.Int(vb))
		t.rec.close(s)
		return err
	}) {
		return nil
	}
	if !ok0 || !ok1 {
		return fmt.Errorf("oracle: tail update of keys %d, %d found=%v,%v, model holds both", 2*i0, 2*i1, ok0, ok1)
	}
	m.base[i0].a = va
	m.base[i1].b = vb
	w.userBytes += 2 * updateBytes
	return nil
}

// checkDigest compares a full-table scan with the model and returns the
// digest.
func (b *bench) checkDigest() (digest, error) {
	tx := b.db.Begin()
	defer tx.Abort()
	got, err := scanDigest(tx)
	if err != nil {
		return got, fmt.Errorf("digest scan: %w", err)
	}
	if want := b.m.digest(); got != want {
		return got, fmt.Errorf("oracle: table digest %+v, model says %+v", got, want)
	}
	return got, nil
}

// statsMonitor samples a store during a traced window: WAL bytes appended,
// tail length, chain length and the checkpoints the scheduler ran, by mode.
type statsMonitor struct {
	db         *pdtstore.DB
	dir        string
	stop, done chan struct{}
	prev       pdtstore.Stats
	// walStart and walSeen hold each WAL file's size when first and last
	// sampled. Checkpoints delete whole files, so appends are the sum of
	// each file's growth; only the appends between a file's last sample and
	// its rotation go uncounted. Each map belongs to one sampling loop.
	walStart, walSeen map[string]int64
	tailMax, genMax   int
	modes             map[string]int
}

func startStatsMonitor(db *pdtstore.DB, dir string) *statsMonitor {
	m := &statsMonitor{
		db: db, dir: dir, stop: make(chan struct{}), done: make(chan struct{}),
		walStart: walSizes(dir), walSeen: map[string]int64{}, modes: map[string]int{},
	}
	m.prev = db.Stats()
	// WAL files are sampled every 5ms by a loop of their own: Stats waits
	// for a running checkpoint, and a file sampled only after the
	// checkpoint has rotated and deleted it loses its last appends.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m.loop(5*time.Millisecond, m.sampleWAL)
	}()
	go func() {
		defer wg.Done()
		m.loop(5*time.Millisecond, m.sampleStats)
	}()
	go func() {
		wg.Wait()
		close(m.done)
	}()
	return m
}

// loop calls sample every period until the monitor stops, and once more
// then.
func (m *statsMonitor) loop(period time.Duration, sample func()) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			sample()
			return
		case <-t.C:
			sample()
		}
	}
}

// walSizes returns the size of every WAL file of the store at dir (wal/
// holds shard 0's stream, wal-s<i>/ shard i's).
func walSizes(dir string) map[string]int64 {
	sizes := map[string]int64{}
	paths, _ := filepath.Glob(filepath.Join(dir, "wal*", "*.wal"))
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			sizes[p] = fi.Size()
		}
	}
	return sizes
}

func (m *statsMonitor) sampleWAL() {
	for p, n := range walSizes(m.dir) {
		m.walSeen[p] = max(m.walSeen[p], n)
	}
}

// sampleStats folds one Stats snapshot in. A shard whose freeze LSN
// advanced was checkpointed since the last sample, in the mode its last
// decision names.
func (m *statsMonitor) sampleStats() {
	st := m.db.Stats()
	for i, sh := range st.Shard {
		if sh.FreezeLSN > m.prev.Shard[i].FreezeLSN {
			m.modes[sh.LastDecision.Mode]++
		}
		m.tailMax = max(m.tailMax, int(sh.WALRecords))
		m.genMax = max(m.genMax, sh.Generations)
	}
	m.prev = st
}

// walGrowth returns the WAL bytes appended while the monitor ran.
func (m *statsMonitor) walGrowth() int64 {
	var n int64
	for p, size := range m.walSeen {
		n += size - m.walStart[p]
	}
	return n
}

// monitored is what a statsMonitor saw, or the sum over segments.
type monitored struct {
	walGrowth       int64
	tailMax, genMax int
	modes           map[string]int
}

func (m *monitored) add(o monitored) {
	m.walGrowth += o.walGrowth
	m.tailMax, m.genMax = max(m.tailMax, o.tailMax), max(m.genMax, o.genMax)
	for mode, n := range o.modes {
		if m.modes == nil {
			m.modes = map[string]int{}
		}
		m.modes[mode] += n
	}
}

func (m *statsMonitor) finish() monitored {
	close(m.stop)
	<-m.done
	return monitored{walGrowth: m.walGrowth(), tailMax: m.tailMax, genMax: m.genMax, modes: m.modes}
}
