//! Layer probes: time the crates' public functions directly, on inputs
//! drawn from the workload's own traced run — its real checkpoint bodies
//! (loaded back through `CkptStoreService::load_with_stats`), its mean
//! message size and its receive fan-in.

use crate::spans::Spans;
use crate::workload::{store_config, WORLD};
use mini_mpi::envelope::{Envelope, Message};
use mini_mpi::matching::MatchEngine;
use mini_mpi::request::{RecvSpec, RequestId};
use mini_mpi::types::{CommId, MatchIdent, RankId, Source, TagSel, COMM_WORLD};
use mini_mpi::RunReport;
use spbc_ckptstore::cas::sha256;
use spbc_ckptstore::chunk::V4Chunk;
use spbc_ckptstore::crc::crc32;
use spbc_ckptstore::{
    chunk_spans, seal_v4, BatchItem, CasStore, CheckpointBackend, ChunkFate, ChunkHash,
    CkptStoreService, DirBackend,
};
use spbc_core::log::MessageLog;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each probe repeats its operation.
const BUDGET: Duration = Duration::from_millis(150);

/// Receive-queue depth of the fixed matching reference point.
pub const REF_DEPTH: usize = 16;

/// One probe result: `(metric name, value, unit)`.
pub type Reading = (&'static str, f64, &'static str);

/// Repeat `op` until [`BUDGET`] is spent (at least 3 times), print and
/// return `(calls, units processed, elapsed)`; `op` returns the units it
/// did (bytes or operations, as the caller counts them).
fn probe(spans: &Spans, name: &'static str, mut op: impl FnMut() -> u64) -> (u64, u64, Duration) {
    let _s = spans.enter(name);
    let t0 = Instant::now();
    let (mut calls, mut units) = (0u64, 0u64);
    while calls < 3 || t0.elapsed() < BUDGET {
        units += black_box(op());
        calls += 1;
    }
    let elapsed = t0.elapsed();
    println!("{name}: {calls} calls, {units} units in {:.3} ms", elapsed.as_secs_f64() * 1e3);
    (calls, units, elapsed)
}

/// Bytes an operation over `input` processed; takes (and discards) the
/// operation's result so the work cannot be optimized away.
fn bytes_of<T>(input: &[u8], result: T) -> u64 {
    drop(black_box(result));
    input.len() as u64
}

fn mb_s(bytes: u64, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64()
}

/// Time per operation, `d` spread over `ops`, in units of `1/scale` s.
fn per_op(scale: f64, ops: u64, d: Duration) -> f64 {
    d.as_secs_f64() * scale / ops as f64
}

/// Every rank's newest checkpoint body, loaded through the storage service
/// the run used. Returns the bodies, the mean milliseconds per load, and
/// the ranks whose committed checkpoint could not be loaded.
pub fn load_bodies(svc: &CkptStoreService, spans: &Spans) -> (Vec<Vec<u8>>, f64, u64) {
    let _s = spans.enter("probe.service.load_with_stats");
    let _ = svc.flush_all();
    let (mut bodies, mut failed) = (Vec::new(), 0u64);
    let mut total = Duration::ZERO;
    for r in 0..WORLD as u32 {
        let rank = RankId(r);
        let epoch = match svc.available_epochs(rank) {
            Ok(epochs) => epochs.last().copied(),
            Err(_) => None,
        };
        let Some(epoch) = epoch else { continue };
        let t0 = Instant::now();
        match svc.load_with_stats(rank, epoch) {
            Ok(Some((body, _, _))) => {
                total += t0.elapsed();
                bodies.push(body);
            }
            other => {
                failed += 1;
                eprintln!("perfbench: loading rank {r} epoch {epoch}: {:?}", other.err());
            }
        }
    }
    let ms = if bodies.is_empty() { 0.0 } else { total.as_secs_f64() * 1e3 / bodies.len() as f64 };
    (bodies, ms, failed)
}

/// The storage-layer probes over real checkpoint bodies.
pub fn storage(bodies: &[Vec<u8>], scratch: &Path, spans: &Spans) -> Vec<Reading> {
    let cfg = store_config();
    let params = cfg.cdc_params;
    let (_, bytes, d) = probe(spans, "probe.cdc.chunk_spans", || {
        bodies.iter().map(|b| bytes_of(b, black_box(chunk_spans(b, params)))).sum()
    });
    let cdc = mb_s(bytes, d);

    let chunks: Vec<Vec<&[u8]>> = bodies
        .iter()
        .map(|b| chunk_spans(b, params).into_iter().map(|s| &b[s]).collect())
        .collect();
    let (_, bytes, d) = probe(spans, "probe.cas.sha256", || {
        chunks.iter().flatten().map(|c| bytes_of(c, black_box(sha256(c)))).sum()
    });
    let sha = mb_s(bytes, d);

    let (_, bytes, d) = probe(spans, "probe.crc.crc32", || {
        bodies.iter().map(|b| bytes_of(b, black_box(crc32(b)))).sum()
    });
    let crc = mb_s(bytes, d);

    // Content-addressed insert in steady state: each rank re-commits its
    // body at a new epoch and drops the registration before it, as the
    // protocol's GC does.
    let manifests: Vec<Vec<(ChunkHash, &[u8])>> =
        chunks.iter().map(|cs| cs.iter().map(|c| (ChunkHash::of(c), *c)).collect()).collect();
    let cas = CasStore::with_shards(cfg.shards);
    let mut epoch = 0u64;
    let mut first_fates: Vec<Vec<ChunkFate>> = Vec::new();
    let (_, ops, d) = probe(spans, "probe.cas.commit_insert", || {
        epoch += 1;
        for (r, m) in manifests.iter().enumerate() {
            let refs: Vec<(ChunkHash, Option<&[u8]>)> =
                m.iter().map(|(h, b)| (*h, Some(*b))).collect();
            let st = cas.commit_insert(0, r as u32, r as u32, epoch, &refs).expect("commit_insert");
            if epoch == 1 {
                first_fates.push(st.fates);
            }
            cas.unregister_below(0, r as u32, r as u32, epoch);
        }
        manifests.len() as u64
    });
    let commit_us = per_op(1e6, ops, d);

    // Seal with the first wave's inline set (chunks new to the store).
    let (_, ops, d) = probe(spans, "probe.chunk.seal_v4", || {
        for (m, fates) in manifests.iter().zip(&first_fates) {
            let parts: Vec<V4Chunk<'_>> = m
                .iter()
                .zip(fates)
                .map(|((h, b), f)| V4Chunk {
                    hash: *h,
                    len: b.len() as u32,
                    inline: (*f == ChunkFate::New).then_some(*b),
                })
                .collect();
            black_box(seal_v4(&parts));
        }
        manifests.len() as u64
    });
    let seal_us = per_op(1e6, ops, d);

    // The whole encode path as the protocol calls it.
    let svc = CkptStoreService::in_memory(WORLD, cfg);
    let mut epoch = 0u64;
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    let (_, ops, d) = probe(spans, "probe.service.encode_commit", || {
        epoch += 1;
        for (r, b) in bodies.iter().enumerate() {
            let (blob, _) = svc.encode_commit(RankId(r as u32), epoch, b).expect("encode_commit");
            if epoch == 1 {
                blobs.push(blob);
            }
            svc.cas().unregister_below(svc.job(), r as u32, r as u32, epoch);
        }
        bodies.len() as u64
    });
    let encode_ms = per_op(1e3, ops, d);

    // Durable writes of the first wave's sealed blobs: one `put` each
    // (write + fsync + rename), and one `put_batch` of the whole wave.
    let (put_ms, batch_ms) = match DirBackend::open(scratch.join("probe-backend")) {
        Ok(backend) => {
            let mut epoch = 0u64;
            let (_, ops, d) = probe(spans, "probe.backend.put", || {
                epoch += 1;
                for (r, blob) in blobs.iter().enumerate() {
                    backend.put(RankId(r as u32), epoch, blob).expect("DirBackend::put");
                    let _ = backend.remove(RankId(r as u32), epoch - 1);
                }
                blobs.len() as u64
            });
            let put_ms = per_op(1e3, ops, d);
            let (_, ops, d) = probe(spans, "probe.backend.put_batch", || {
                epoch += 1;
                let items: Vec<BatchItem<'_>> = blobs
                    .iter()
                    .enumerate()
                    .map(|(r, blob)| BatchItem { owner: RankId(r as u32), epoch, blob })
                    .collect();
                backend.put_batch(&items).expect("DirBackend::put_batch");
                for r in 0..blobs.len() {
                    let _ = backend.remove(RankId(r as u32), epoch - 1);
                }
                blobs.len() as u64
            });
            let _ = std::fs::remove_dir_all(backend.root());
            (put_ms, per_op(1e3, ops, d))
        }
        Err(e) => {
            eprintln!("perfbench: backend probe skipped: {e}");
            (0.0, 0.0)
        }
    };
    vec![
        ("cdc.chunk_mb_s", cdc, "MB/s"),
        ("cas.sha256_mb_s", sha, "MB/s"),
        ("cas.commit_insert_us", commit_us, "us"),
        ("chunk.seal_v4_us", seal_us, "us"),
        ("crc.crc32_mb_s", crc, "MB/s"),
        ("service.encode_commit_ms", encode_ms, "ms"),
        ("backend.put_ms", put_ms, "ms"),
        ("backend.put_batch_ms_per_blob", batch_ms, "ms"),
    ]
}

/// Mean payload size of the run's sends and its largest receive fan-in
/// (distinct peers one rank receives from — the receives it keeps posted).
pub fn traffic_shape(report: &RunReport) -> (usize, usize) {
    let (bytes, msgs) = report
        .stats
        .iter()
        .fold((0u64, 0u64), |(b, m), s| (b + s.total_sent_bytes(), m + s.total_sent_msgs()));
    let mean = bytes.checked_div(msgs).unwrap_or(0) as usize;
    let fan_in = report
        .stats
        .iter()
        .map(|s| s.recv_msgs.iter().filter(|&&n| n > 0).count())
        .max()
        .unwrap_or(0);
    (mean, fan_in.max(1))
}

/// Nanoseconds per match-and-repost against a posted queue of `depth`
/// exact receives on distinct channels, the arrival matching the deepest.
fn post_match_ns(depth: usize, spans: &Spans, name: &'static str) -> f64 {
    let spec = |i: usize| RecvSpec {
        comm: CommId(0),
        src: Source::Rank(RankId(i as u32)),
        tag: TagSel::Tag(1),
        ident: MatchIdent::new(0, 1),
    };
    let target = Envelope {
        src: RankId(depth as u32 - 1),
        dst: RankId(depth as u32),
        comm: CommId(0),
        tag: 1,
        seqnum: 1,
        plen: 0,
        lamport: 1,
        ident: MatchIdent::new(0, 1),
    };
    let check = |s: &RecvSpec, e: &Envelope| s.ident == e.ident;
    let mut eng = MatchEngine::new();
    for i in 0..depth {
        eng.post(RequestId(i as u64), spec(i));
    }
    const BATCH: u64 = 1024;
    let (_, ops, d) = probe(spans, name, || {
        for _ in 0..BATCH {
            let id = eng.match_arrival(black_box(&target), &check).expect("deepest entry matches");
            eng.post(id, spec(depth - 1));
        }
        BATCH
    });
    per_op(1e9, ops, d)
}

/// Nanoseconds per `MessageLog::append` of `size`-byte messages spread
/// round-robin over the other ranks.
fn log_append_ns(size: usize, spans: &Spans) -> f64 {
    const BATCH: usize = 4096;
    let payload = bytes::Bytes::from(vec![0x5a; size]);
    let msgs: Vec<Message> = (0..BATCH)
        .map(|i| Message {
            env: Envelope {
                src: RankId(0),
                dst: RankId((i % (WORLD - 1)) as u32 + 1),
                comm: COMM_WORLD,
                tag: 1,
                seqnum: (i / (WORLD - 1)) as u64 + 1,
                plen: size as u64,
                lamport: i as u64 + 1,
                ident: MatchIdent::DEFAULT,
            },
            payload: payload.clone(),
        })
        .collect();
    // Only the appends are timed, not cloning the batch or dropping the log.
    let mut spent = Duration::ZERO;
    let (_, ops, _) = probe(spans, "probe.log.append", || {
        let batch = msgs.clone();
        let mut log = MessageLog::new();
        let t0 = Instant::now();
        for m in batch {
            log.append(m);
        }
        spent += t0.elapsed();
        black_box(log.total_bytes());
        BATCH as u64
    });
    per_op(1e9, ops, spent)
}

/// The substrate and sender-log probes, shaped by the run's traffic.
pub fn substrate(report: &RunReport, spans: &Spans) -> Vec<Reading> {
    let (msg_size, fan_in) = traffic_shape(report);
    vec![
        ("matching.post_match_ns_d16", post_match_ns(REF_DEPTH, spans, "probe.matching.d16"), "ns"),
        (
            "matching.post_match_ns_observed",
            post_match_ns(fan_in, spans, "probe.matching.observed"),
            "ns",
        ),
        ("matching.observed_depth", fan_in as f64, "count"),
        ("log.append_ns", log_append_ns(msg_size, spans), "ns"),
    ]
}
