//! The SPBC benchmark: one command, three workloads, every run's output
//! checked bitwise against the native reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <minighost-ckpt|amg-failfree|minighost-recover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs 8 ranks in 4 clusters, 2 ranks per node, over the
//! in-process transport. A run sets the workload up several times (native
//! profiling run + `clustering::partition` + provider/storage construction;
//! `setup_s` is their median), runs one untimed warm-up pair, then repeats
//! a native run and an SPBC run of the same application for `--seconds`.
//! Every end-to-end metric is the median over those repetitions.
//!
//! With `--trace 1` the same timed loop runs (a minighost-ckpt loop also
//! runs a no-checkpoint twin for the per-wave accounting), followed by one
//! SPBC run with the flight recorder on, whose counters, phase histograms
//! and `RunReport` give the per-layer metrics, and by the layer probes in
//! `layers`, which time the crates' public functions on that run's inputs.
//! The Chrome trace of the traced run plus the benchmark's own spans is
//! written to `perfbench/out/trace-<workload>-seed<n>.json`.
//!
//! Every workload reports every metric, so each definition below is the one
//! that also holds where a workload does not exercise the measured thing:
//!
//! * `recovery_s` is the largest final-incarnation `RankStats::total_time`
//!   over the victim's cluster. On a failure-free workload nothing
//!   restarts, so it is that cluster's failure-free time.
//! * `stored_bytes_per_byte` and `repl_bytes_per_byte` divide by the
//!   logical checkpoint bytes; with no checkpoint (amg-failfree) they are
//!   1.0, as `MetricsSnapshot::dedup_ratio` reports for zero-byte waves.
//! * `peak_rss_mb` is per SPBC run: free heap is handed back to the kernel
//!   before the run and `VmRSS` is sampled every 2 ms during it. The
//!   process-wide `VmHWM` would instead grow with the number of runs.
//! * `cpu_s` is process CPU (`CLOCK_PROCESS_CPUTIME_ID`) across the launch.
//!
//! Per-wave per-layer metrics are milliseconds one rank spends in the phase
//! per wave (phase sum over committed rank-waves); `_ms` phase metrics are
//! means per recorded sample.
//!
//! The last line of standard output is the JSON result; the lines before it
//! are the effective configuration and a table of every metric with its
//! quartiles and sample count.

#![allow(clippy::field_reassign_with_default)] // every field is pinned one by one

mod layers;
mod measure;
mod runner;
mod spans;
mod workload;

use measure::Summary;
use runner::{Bench, Kind, TempDir};
use spans::Spans;
use spbc_core::{MetricsSnapshot, Phase};
use spbc_trace::JsonObj;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Spec, WORLD};

/// End-to-end metrics (`--trace 0`), all lower-is-better.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("recovery_s", "s"),
    ("native_wall_s", "s"),
    ("stored_bytes_per_byte", "ratio"),
    ("repl_bytes_per_byte", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not exercise
/// reports 0 — that is how the traced run shows the workload isolates it.
const PER_LAYER: [(&str, &str); 51] = [
    ("ckptstore.encode_ms_per_wave", "ms"),
    ("cdc.chunk_mb_s", "MB/s"),
    ("cas.sha256_mb_s", "MB/s"),
    ("cas.commit_insert_us", "us"),
    ("chunk.seal_v4_us", "us"),
    ("crc.crc32_mb_s", "MB/s"),
    ("service.encode_commit_ms", "ms"),
    ("ckptstore.admission_ms_per_wave", "ms"),
    ("ckptstore.write_ms_per_wave", "ms"),
    ("ckptstore.fsync_ms_per_wave", "ms"),
    ("ckptstore.tier_drain_ms_per_wave", "ms"),
    ("ckptstore.batched_fsyncs", "count"),
    ("ckptstore.admission_waits", "count"),
    ("backend.put_ms", "ms"),
    ("backend.put_batch_ms_per_blob", "ms"),
    ("ckptstore.cas_hit_ratio", "ratio"),
    ("ckptstore.physical_mb", "MB"),
    ("ckptstore.repl_mb", "MB"),
    ("protocol.rank_waves", "count"),
    ("protocol.quiesce_ms_per_wave", "ms"),
    ("protocol.replicate_ms_per_wave", "ms"),
    ("protocol.commit_barrier_ms_per_wave", "ms"),
    ("protocol.ctrl_msgs", "count"),
    ("recovery.failures_handled", "count"),
    ("ckptstore.restore_load_ms", "ms"),
    ("ckptstore.restore_materialize_ms", "ms"),
    ("ckptstore.restore_repair_ms", "ms"),
    ("service.load_ms", "ms"),
    ("replay.restore_replay_ms", "ms"),
    ("replay.replayed_msgs", "count"),
    ("replay.replayed_mb", "MB"),
    ("replay.suppressed_sends", "count"),
    ("replay.dropped_duplicates", "count"),
    ("log.logged_msgs", "count"),
    ("log.logged_mb", "MB"),
    ("log.growth_mb_s_per_rank", "MB/s"),
    ("log.append_ns", "ns"),
    ("mpi.comm_wait_s", "s"),
    ("mpi.msgs", "count"),
    ("mpi.mb", "MB"),
    ("matching.post_match_ns_d16", "ns"),
    ("matching.post_match_ns_observed", "ns"),
    ("matching.observed_depth", "count"),
    ("clustering.partition_ms", "ms"),
    ("accounting.ckpt_ms_per_wave", "ms"),
    ("accounting.blocking_ms_per_wave", "ms"),
    ("accounting.unexplained_ms_per_wave", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.traced_wall_s", "s"),
    ("paper.t2_overhead_pct", "%"),
    ("paper.f5_norm", "ratio"),
];

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 5;
/// Timed native/SPBC pairs per run, at least.
const MIN_PAIRS: usize = 3;

/// Phases a rank blocks in during a wave (write, fsync and tier drain run
/// behind it on the background writer).
const BLOCKING: [Phase; 5] =
    [Phase::Quiesce, Phase::Encode, Phase::Admission, Phase::Replicate, Phase::CommitBarrier];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { spec, seed: num("--seed")?, seconds: num("--seconds")?.max(1), trace })
}

/// Per-repetition samples of the timed loop.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    recovery: Vec<f64>,
    native: Vec<f64>,
    peak_rss: Vec<f64>,
    stored: Vec<f64>,
    repl: Vec<f64>,
    twin: Vec<f64>,
    blocking: Vec<f64>,
    rank_waves: Vec<f64>,
    t2: Vec<f64>,
    f5: Vec<f64>,
}

/// `num / den`, or 1.0 when nothing was checkpointed (`den` = 0): every
/// logical byte then costs exactly one byte, as `MetricsSnapshot::dedup_ratio`
/// reports for zero-byte waves.
fn ratio_or_one(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Milliseconds one rank spends in `phase` per checkpoint wave.
fn ms_per_wave(m: &MetricsSnapshot, phase: Phase) -> f64 {
    if m.checkpoints == 0 {
        0.0
    } else {
        m.phases.get(phase).sum as f64 / 1e3 / m.checkpoints as f64
    }
}

/// Mean milliseconds per recorded `phase` sample (0 with none).
fn mean_ms(m: &MetricsSnapshot, phase: Phase) -> f64 {
    let h = m.phases.get(phase);
    if h.count() == 0 {
        0.0
    } else {
        h.sum as f64 / 1e3 / h.count() as f64
    }
}

/// The timed loop: one untimed warm-up, then native + SPBC pairs (plus the
/// no-checkpoint twin when `twin`) until `seconds` have passed.
fn timed_loop(bench: &mut Bench, spans: &Spans, seconds: u64, twin: bool) -> Samples {
    {
        let _s = spans.enter("warmup");
        bench.run(spans, Kind::Native, false, false);
        bench.run(spans, Kind::Spbc, false, false);
        if twin {
            bench.run(spans, Kind::Twin, false, false);
        }
    }
    let mut s = Samples::default();
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    while s.wall.len() < MIN_PAIRS || t0.elapsed() < budget {
        let native = bench.run(spans, Kind::Native, false, false).wall.as_secs_f64();
        let run = bench.run(spans, Kind::Spbc, false, false);
        let wall = run.wall.as_secs_f64();
        s.native.push(native);
        s.wall.push(wall);
        s.cpu.push(run.cpu.as_secs_f64());
        s.peak_rss.push(run.peak_rss_mb);
        s.t2.push((wall / native - 1.0) * 100.0);
        if let Some(report) = &run.report {
            let rework = bench.recovery_s(report);
            let ff_equiv = native / bench.spec.iters as f64 * bench.reexec_iters() as f64;
            s.recovery.push(rework);
            s.f5.push(rework / ff_equiv);
        }
        if let Some(m) = &run.snap {
            s.stored.push(ratio_or_one(m.ckpt_bytes_physical, m.ckpt_bytes_logical));
            s.repl.push(ratio_or_one(m.repl_bytes, m.ckpt_bytes_logical));
            s.blocking.push(BLOCKING.iter().map(|&p| ms_per_wave(m, p)).sum());
            s.rank_waves.push(m.checkpoints as f64);
        }
        if twin {
            s.twin.push(bench.run(spans, Kind::Twin, false, false).wall.as_secs_f64());
        }
    }
    s
}

/// Collects `(name, summary)` rows for the human-readable table.
struct Table(Vec<(&'static str, Summary)>);

impl Table {
    fn add(&mut self, name: &'static str, values: &[f64]) -> Summary {
        let s = Summary::of(values);
        self.0.push((name, s));
        s
    }

    fn print(&self) {
        println!(
            "{:<36} {:>14} {:>14} {:>14} {:>6} {:>8}",
            "metric", "median", "p25", "p75", "n", "iqr%"
        );
        for (name, s) in &self.0 {
            println!(
                "{:<36} {:>14.6} {:>14.6} {:>14.6} {:>6} {:>8.2}",
                name,
                s.median,
                s.p25,
                s.p75,
                s.n,
                s.rel_iqr() * 100.0
            );
        }
    }
}

fn result_line(bench: &Bench, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = JsonObj::new();
    for (name, value, unit) in metrics {
        let mut v = JsonObj::new();
        v.field_f64("value", if value.is_finite() { *value } else { 0.0 });
        v.field_str("unit", unit);
        m.field_raw(name, &v.finish());
    }
    let mut out = JsonObj::new();
    out.field_raw("correct", if bench.failed == 0 { "true" } else { "false" });
    out.field("attempted", bench.attempted);
    out.field("failed", bench.failed);
    out.field_raw("metrics", &m.finish());
    out.finish()
}

fn run(args: &Args, scratch: &TempDir, out_dir: &Path) -> Result<String, String> {
    let spec = args.spec;
    let spans = Spans::new(args.trace);
    let (mut bench, setup) =
        Bench::setup(spec, args.seed, scratch.path().to_path_buf(), SETUP_REPS, &spans)?;
    let clusters = &bench.clusters;
    println!(
        "clusters: {:?}",
        (0..clusters.cluster_count()).map(|c| clusters.members(c)).collect::<Vec<_>>()
    );
    let twin = args.trace && spec.ckpt_interval > 0 && !spec.fail_last_iter;
    let s = timed_loop(&mut bench, &spans, args.seconds, twin);

    let mut t = Table(Vec::new());
    let wall = t.add("wall_s", &s.wall).median;
    let cpu = t.add("cpu_s", &s.cpu).median;
    let recovery = t.add("recovery_s", &s.recovery).median;
    let native = t.add("native_wall_s", &s.native).median;
    let stored = t.add("stored_bytes_per_byte", &s.stored).median;
    let repl = t.add("repl_bytes_per_byte", &s.repl).median;
    let peak_rss = t.add("peak_rss_mb", &s.peak_rss).median;
    let setup_s = t.add("setup_s", &setup.setup_s).median;
    let t2 = t.add("t2_overhead_pct (per pair)", &s.t2);
    let f5 = t.add("f5_norm (per pair)", &s.f5);
    t.print();
    println!("samples wall_s: {:.4?}", s.wall);
    println!("samples native_wall_s: {:.4?}", s.native);
    println!("samples recovery_s: {:.4?}", s.recovery);
    println!("samples peak_rss_mb: {:.1?}", s.peak_rss);
    println!(
        "t2_overhead_pct = {:.3} % (SPBC {wall:.6} s over native {native:.6} s, medians of {} \
         pairs; per-pair quartiles {:.3} .. {:.3} %)",
        (wall / native - 1.0) * 100.0,
        s.wall.len(),
        t2.p25,
        t2.p75,
    );
    println!(
        "f5_norm = {:.4} (rework {recovery:.6} s over native {:.6} s per iteration x {} \
         re-executed iterations; per-pair quartiles {:.4} .. {:.4})",
        f5.median,
        native / spec.iters as f64,
        bench.reexec_iters(),
        f5.p25,
        f5.p75,
    );

    if !args.trace {
        let values = [wall, cpu, recovery, native, stored, repl, peak_rss, setup_s];
        let metrics: Vec<(&str, f64, &str)> =
            END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
        return Ok(result_line(&bench, &metrics));
    }

    // The traced run: flight recorder on, provider kept for the loads.
    let traced = bench.run(&spans, Kind::Spbc, true, true);
    let mut v: BTreeMap<&str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        assert!(v.insert(name, value).is_some(), "{name} is not a listed per-layer metric");
    };
    let traced_wall = traced.wall.as_secs_f64();
    set("trace.traced_wall_s", traced_wall);
    set("trace.overhead_pct", (traced_wall / wall - 1.0) * 100.0);
    set("paper.t2_overhead_pct", (wall / native - 1.0) * 100.0);
    set("paper.f5_norm", f5.median);
    set("clustering.partition_ms", Summary::of(&setup.partition_ms).median);
    if twin {
        let waves = Summary::of(&s.rank_waves).median / WORLD as f64;
        let ckpt_ms = (wall - Summary::of(&s.twin).median) * 1e3 / waves;
        let blocking = Summary::of(&s.blocking).median;
        set("accounting.ckpt_ms_per_wave", ckpt_ms);
        set("accounting.blocking_ms_per_wave", blocking);
        set("accounting.unexplained_ms_per_wave", ckpt_ms - blocking);
    }
    if let Some(m) = &traced.snap {
        set("ckptstore.encode_ms_per_wave", ms_per_wave(m, Phase::Encode));
        set("ckptstore.admission_ms_per_wave", ms_per_wave(m, Phase::Admission));
        set("ckptstore.write_ms_per_wave", ms_per_wave(m, Phase::Write));
        set("ckptstore.fsync_ms_per_wave", ms_per_wave(m, Phase::Fsync));
        set("ckptstore.tier_drain_ms_per_wave", ms_per_wave(m, Phase::TierDrain));
        set("ckptstore.batched_fsyncs", m.store_batched_fsyncs as f64);
        set("ckptstore.admission_waits", m.store_admission_waits as f64);
        let logical = m.ckpt_bytes_logical;
        set(
            "ckptstore.cas_hit_ratio",
            if logical == 0 { 0.0 } else { m.cas_hit_bytes as f64 / logical as f64 },
        );
        set("ckptstore.physical_mb", m.ckpt_bytes_physical as f64 / 1e6);
        set("ckptstore.repl_mb", m.repl_bytes as f64 / 1e6);
        set("protocol.rank_waves", m.checkpoints as f64);
        set("protocol.quiesce_ms_per_wave", ms_per_wave(m, Phase::Quiesce));
        set("protocol.replicate_ms_per_wave", ms_per_wave(m, Phase::Replicate));
        set("protocol.commit_barrier_ms_per_wave", ms_per_wave(m, Phase::CommitBarrier));
        set("protocol.ctrl_msgs", m.ctrl_msgs as f64);
        set("ckptstore.restore_load_ms", mean_ms(m, Phase::RestoreLoad));
        set("ckptstore.restore_materialize_ms", mean_ms(m, Phase::RestoreMaterialize));
        set("ckptstore.restore_repair_ms", mean_ms(m, Phase::RestoreRepair));
        set("replay.restore_replay_ms", mean_ms(m, Phase::RestoreReplay));
        set("replay.replayed_msgs", m.replayed_msgs as f64);
        set("replay.replayed_mb", m.replayed_bytes as f64 / 1e6);
        set("replay.suppressed_sends", m.suppressed_sends as f64);
        set("replay.dropped_duplicates", m.dropped_duplicates as f64);
        set("log.logged_msgs", m.logged_msgs as f64);
        set("log.logged_mb", m.logged_bytes as f64 / 1e6);
        set("log.growth_mb_s_per_rank", m.logged_bytes as f64 / 1e6 / traced_wall / WORLD as f64);
    }
    if let Some(report) = &traced.report {
        set("recovery.failures_handled", report.failures_handled as f64);
        set("mpi.comm_wait_s", report.stats.iter().map(|s| s.comm_time.as_secs_f64()).sum());
        set("mpi.msgs", report.stats.iter().map(|s| s.total_sent_msgs() as f64).sum());
        set("mpi.mb", report.stats.iter().map(|s| s.total_sent_bytes() as f64).sum::<f64>() / 1e6);
        for (name, value, _) in layers::substrate(report, &spans) {
            set(name, value);
        }
    }
    if let Some(kept) = &traced.kept {
        let (bodies, load_ms, failed) = layers::load_bodies(&kept.provider.ckptstore(), &spans);
        bench.attempted += bodies.len() as u64 + failed;
        bench.failed += failed;
        if !bodies.is_empty() {
            set("service.load_ms", load_ms);
            for (name, value, _) in layers::storage(&bodies, scratch.path(), &spans) {
                set(name, value);
            }
        }
    }
    if let Some(flight) = traced.report.as_ref().and_then(|r| r.flight.as_ref()) {
        let path = out_dir.join(format!("trace-{}-seed{}.json", spec.name, args.seed));
        let json = spans.merge_into(&spbc_trace::chrome_trace(flight));
        match std::fs::write(&path, json) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    drop(traced);
    for (name, unit) in PER_LAYER {
        println!("{name:<40} {:>16.6}  {unit}", v[name]);
    }
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER.iter().map(|&(n, u)| (n, v[n], u)).collect();
    Ok(result_line(&bench, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    let scrubbed = workload::scrub_env();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = match TempDir::create(out_dir.join(format!("tmp-{}", std::process::id()))) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    };
    let spec = args.spec;
    println!("workload: {spec:?}");
    println!("seed: {}  seconds: {}  trace: {}", args.seed, args.seconds, args.trace);
    println!("scrubbed env: {scrubbed:?}");
    println!("app params: {:?}", spec.params(args.seed));
    println!("runtime config: {:?}", workload::runtime_config(args.trace));
    println!("spbc config: {:?}", spec.spbc_config(true));
    println!("host: {} cpus", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let result = run(&args, &scratch, &out_dir);
    drop(scratch);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
