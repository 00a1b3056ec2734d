// Command pdtperf is the store's end-to-end benchmark. It drives pdtstore
// through its public surface only — Open, Begin, Tx, engine.Scan plans,
// Checkpoint, Stats, Close — against a real store directory with an fsynced
// WAL, checks every result against an oracle model, and ends its output
// with one JSON result line per workload:
//
//	pdtperf --workload oltp-trickle|htap-scan|all --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) trace every other second of each window, recording spans
// around every public call, write them to .bench_out/trace-<workload>.jsonl
// and report the per-layer metrics plus the tracing overhead. Any oracle
// mismatch exits non-zero without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pdtstore"
)

func main() {
	workload := flag.String("workload", "all", "oltp-trickle, htap-scan, or all (each in turn)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		cfg, err := newConfig(name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		var res *result
		if err == nil {
			res, err = run(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdtperf: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and returns its result; any oracle
// mismatch is an error.
func run(cfg config) (res *result, err error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	b := newBench(cfg)
	defer func() {
		if b.db != nil {
			if cerr := b.db.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close: %w", cerr)
			}
		}
		os.RemoveAll(b.dir)
	}()
	fmt.Fprintf(cfg.log, "host nproc=%d gomaxprocs=%d go=%s fs=%s wal=fsync group_commit=default max_commit_batch=default max_commit_delay=0\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.out))
	fmt.Fprintf(cfg.log, "run workload=%s seed=%d seconds=%g trace=%v rows=%d shards=%d\n",
		cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, cfg.rows, b.wl.shards)

	setups, err := b.setup()
	if err != nil {
		return nil, err
	}
	// Each segment runs the workload's window, then checks the store against
	// the model, reopens it without the scheduler and checkpoints it, so each
	// cold open of the restart cycles replays exactly its cycle's
	// transactions. A workload without queries of its own runs the query mix
	// on that quiesced store first. Spreading the cycles and queries over the
	// run lets every metric average over the host's slow and fast stretches.
	main, probe := newWindow(), newWindow()
	queries := main
	var qrec *recorder
	if cfg.workload == "oltp-trickle" {
		queries = newWindow()
		queries.traced = cfg.trace
		qrec = b.recorder(queries)
	}
	probe.traced = cfg.trace
	crec := b.recorder(probe)
	for seg := 0; seg < cfg.segments; seg++ {
		if seg > 0 {
			if err := b.reopen(b.opts); err != nil {
				return nil, fmt.Errorf("reopen with the scheduler: %w", err)
			}
		}
		w, err := b.measure(cfg.trace, cfg.window/time.Duration(cfg.segments), seg)
		if err != nil {
			return nil, err
		}
		main.add(w)
		if err := b.m.verify(b.db, b.vr); err != nil {
			return nil, fmt.Errorf("after the window: %w", err)
		}
		if err := b.reopen(b.cycleOpts()); err != nil {
			return nil, fmt.Errorf("reopen before restart cycles: %w", err)
		}
		if err := b.db.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint before restart cycles: %w", err)
		}
		if queries != main {
			qw := newWindow()
			qw.seg = seg
			for i := 0; i == 0 || time.Since(qw.start) < cfg.quiet; i++ {
				q := nextQuery(b.g, b.qr, queryKinds[i%len(queryKinds)], len(b.m.base))
				if _, err := b.runQuery(qw, qrec, -1, q); err != nil {
					return nil, err
				}
			}
			qw.elapsed = time.Since(qw.start)
			queries.add(qw)
		}
		for i := 0; i < cfg.cycles; i++ {
			if err := b.cycle(probe, crec); err != nil {
				return nil, err
			}
		}
	}
	if err := b.m.verify(b.db, b.vr); err != nil {
		return nil, fmt.Errorf("at the end: %w", err)
	}
	end := b.db.Stats()
	storeBytes := dirBytes(b.dir)

	res = &result{Correct: true, Metrics: map[string]metric{}}
	windows := []*window{main}
	for _, w := range []*window{probe, queries} {
		if w != main {
			windows = append(windows, w)
		}
	}
	for _, w := range windows {
		res.Attempted += w.attempted + int64(len(w.allQueries))
		res.Failed += w.failed
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !cfg.trace {
		put("setup_s", quantile(setups, 0.5), "s")
		put("txn_tps", float64(main.committed)/main.elapsed.Seconds(), "1/s")
		put("txn_p50_ms", main.txns.bySegment(0.5), "ms")
		for _, kind := range queryKinds {
			put(kind+"_p50_ms", queries.queries[kind].bySegment(0.5), "ms")
		}
		put("query_p90_ms", queries.allQueries.bySegment(0.9), "ms")
		put("open_p50_ms", quantile(b.cs.openMs, 0.5), "ms")
		put("cold_query_p50_ms", quantile(b.cs.coldMs, 0.5), "ms")
		put("checkpoint_p50_ms", quantile(b.cs.ckptMs, 0.5), "ms")
		put("write_amp", float64(main.io.wchar)/float64(max(main.userBytes, 1)), "ratio")
		put("space_amp", quantile(b.cs.spaceAmp, 0.5), "ratio")
		put("rss_peak_mb", main.rssPeak/(1<<20), "MB")
	} else {
		layerMetrics(put, b, main, queries, end, storeBytes)
		all := merge(b.t0, b.recs...)
		path := filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl")
		if err := all.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(cfg.log, "trace %d spans -> %s\n", len(all.spans), path)
		fmt.Fprintf(cfg.log, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, st := range all.selfTimes() {
			fmt.Fprintf(cfg.log, "%-22s %8d %12.3f %12.3f\n", st.name, st.count, ms(st.total), ms(st.self))
		}
	}
	fmt.Fprintf(cfg.log, "info txns=%d txn_p99_ms=%.3f failed=%d failed_frac=%g queries=%d restart_cycles=%d\n",
		main.attempted, main.txns.bySegment(0.99), res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)),
		len(queries.allQueries), len(b.cs.openMs))
	if len(main.lateMs) > 0 {
		fmt.Fprintf(cfg.log, "info writer_rate=%d/s late_ms_p50=%.3f late_ms_p99=%.3f late_ms_max=%.3f\n",
			writeRate, quantile(main.lateMs, 0.5), quantile(main.lateMs, 0.99), maxOf(main.lateMs))
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(cfg.log, "metric %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// layerMetrics reports the traced run's per-layer metrics. Every name is
// reported on every workload; a layer the workload does not exercise
// reads 0.
func layerMetrics(put func(string, float64, string), b *bench, main, queries *window, end pdtstore.Stats, storeBytes int64) {
	txns := merge(b.t0, main.recs...)
	find, write, commit := txns.durations("txn.find"), txns.durations("txn.write"), txns.durations("txn.commit")
	put("txn.find_us.p50", quantile(find, 0.5), "us")
	put("txn.find_us.p99", quantile(find, 0.99), "us")
	put("txn.write_us.p50", quantile(write, 0.5), "us")
	put("txn.commit_us.p50", quantile(commit, 0.5), "us")
	put("txn.commit_us.p99", quantile(commit, 0.99), "us")
	put("txn.begin_us.p50", quantile(txns.durations("txn.begin"), 0.5), "us")
	put("txn.failed", float64(main.failed), "count")
	put("txn.latency_ms.p99", main.txns.bySegment(0.99), "ms")
	put("txn.probe_share", (sum(find)+sum(write))/max(sum(txns.durations("txn")), 1), "ratio")

	committed := float64(max(main.committed, 1))
	mon := &main.mon
	tailMax, genMax := max(b.cs.tailMax, mon.tailMax), max(b.cs.genMax, mon.genMax)
	put("wal.bytes_per_txn", float64(mon.walGrowth)/committed, "B")
	put("wal.tail_records.max", float64(tailMax), "count")
	put("io.wchar_per_txn", float64(main.io.wchar)/committed, "B")
	put("io.syscw_per_txn", float64(main.io.syscw)/committed, "count")
	put("io.rchar_per_open", mean(b.cs.rcharOpen), "B")
	put("io.rchar_per_cold_query", mean(b.cs.rcharCold), "B")

	qrecs := merge(b.t0, queries.recs...)
	for _, kind := range queryKinds {
		put("engine.run_ms."+kind, quantile(qrecs.durations("engine.run."+kind), 0.5)/1e3, "ms")
		put("engine.rows_out."+kind, mean(queries.kind(kind).rowsOut), "rows")
	}
	put("engine.zone_skipped.range", mean(queries.kind("range").zoneSkips), "blocks")
	put("engine.index_skipped.eq", mean(queries.kind("eq").indexSkips), "blocks")
	put("engine.prune_ratio.range", mean(queries.kind("range").pruneRatio), "ratio")
	put("engine.prune_ratio.eq", mean(queries.kind("eq").pruneRatio), "ratio")

	put("checkpoint.ms.p50", quantile(b.cs.ckptMs, 0.5), "ms")
	for _, mode := range []string{"shared", "incremental", "full"} {
		put("checkpoint.background."+mode, float64(mon.modes[mode]), "count")
	}
	put("checkpoint.dirty_blocks.p50", quantile(b.cs.dirty, 0.5), "blocks")
	dead := 0
	for _, sh := range end.Shard {
		for _, seg := range sh.Segments {
			dead += seg.TotalBlocks - seg.LiveBlocks
		}
	}
	put("storage.generations.max", float64(genMax), "count")
	put("storage.dead_blocks", float64(dead), "blocks")
	put("storage.dir_bytes", float64(storeBytes), "B")
	put("open.ms.p50", quantile(b.cs.openMs, 0.5), "ms")
	put("open.replayed_records", quantile(b.cs.replayed, 0.5), "count")

	put("go.alloc_bytes_per_txn", float64(main.allocs)/committed, "B")
	put("go.alloc_bytes_per_query", mean(queries.queryAllocs), "B")
	put("go.gc_cycles", float64(main.gcs), "count")
	put("writer.late_ms.p99", quantile(main.lateMs, 0.99), "ms")
	untraced := main.workDone[0] / max(main.workSecs[0], 1)
	traced := main.workDone[1] / max(main.workSecs[1], 1)
	put("trace.overhead_pct", 100*(untraced/max(traced, 1e-9)-1), "%")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
