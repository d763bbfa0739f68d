//! §6.2's storage story, end to end: log memory is freed when checkpoints
//! commit (entries move to the stable archive), recovery replays from the
//! archive transparently, and committed checkpoints can be kept on disk in
//! the shared global tier.

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use mini_mpi::wire::from_bytes;
use spbc_apps::{AppParams, Workload};
use spbc_core::store::CheckpointData;
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider, Storage};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 8;

fn params() -> AppParams {
    AppParams { iters: 9, elems: 256, compute: 1, seed: 77, sleep_us: 0 }
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig::new(WORLD).with_deadlock_timeout(Duration::from_secs(60))
}

fn native(w: Workload) -> RunReport {
    Runtime::builder(cfg()).app(w.build(params())).launch().unwrap().ok().unwrap()
}

#[test]
fn freed_logs_still_recover_bitwise() {
    let w = Workload::MiniGhost;
    let base = native(w);
    let provider = Arc::new(SpbcProvider::new(
        ClusterMap::blocks(WORLD, 4),
        SpbcConfig { ckpt_interval: 3, free_logs_on_checkpoint: true, ..Default::default() },
    ));
    // Fail after the second checkpoint wave: the replay the recovering
    // cluster needs spans entries that were archived (and freed from
    // memory) by wave 1 and 2.
    let report = Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .plans(vec![FailurePlan::nth(RankId(2), 8)])
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(report.failures_handled, 1);
    assert_eq!(base.outputs, report.outputs, "archive-backed replay must be exact");
}

#[test]
fn freeing_actually_releases_node_memory() {
    let w = Workload::MiniGhost;
    let run = |free: bool| {
        let provider = Arc::new(SpbcProvider::new(
            ClusterMap::blocks(WORLD, 4),
            SpbcConfig { ckpt_interval: 3, free_logs_on_checkpoint: free, ..Default::default() },
        ));
        Runtime::builder(cfg())
            .provider(provider.clone())
            .app(w.build(params()))
            .launch()
            .unwrap()
            .ok()
            .unwrap();
        provider.store().total_logged_bytes()
    };
    let kept = run(false);
    let freed = run(true);
    assert!(kept > 0);
    // With freeing, only the entries logged after the last wave (iteration 9
    // has a wave at 9 — the final call — so possibly zero) remain in memory.
    assert!(
        freed < kept / 2,
        "freeing must shrink the in-memory log substantially: kept={kept} freed={freed}"
    );
}

/// On-disk storage whose every wave drains to the shared global directory
/// (`root/shared/global`) — the copy that outlives the node.
fn durable_provider(dir: &Path, ckpt_interval: u64) -> Arc<SpbcProvider> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg =
        SpbcConfig { ckpt_interval, tier_policy: "mem:0,global:all".into(), ..Default::default() };
    Arc::new(
        SpbcProvider::new(ClusterMap::blocks(WORLD, 4), cfg)
            .with_storage(Storage::disk_root(dir))
            .unwrap(),
    )
}

/// Every rank's checkpoint at `epoch` is a file under the global tier and
/// decodes to a non-empty application state.
fn assert_durable_wave(provider: &SpbcProvider, dir: &Path, epoch: u64) {
    let svc = provider.ckptstore();
    for r in 0..WORLD as u32 {
        let file = dir.join("shared").join("global").join(format!("rank-{r}.epoch-{epoch}.ckpt"));
        assert!(file.exists(), "rank {r}: {} missing", file.display());
        let (body, _) = svc.load(RankId(r), epoch).unwrap().unwrap();
        let ck: CheckpointData = from_bytes(&body).unwrap();
        assert_eq!(ck.ckpt_epoch, epoch);
        assert!(!ck.app_state.is_empty(), "rank {r}");
    }
}

#[test]
fn checkpoints_are_mirrored_to_disk() {
    let dir = std::env::temp_dir().join(format!("spbc-disk-e2e-{}", std::process::id()));
    let w = Workload::Cm1;
    let provider = durable_provider(&dir, 4);
    Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    // 9 iterations, waves at calls 4 and 8: every rank reaches wave 2.
    let ranks: Vec<RankId> = (0..WORLD as u32).map(RankId).collect();
    assert_eq!(provider.ckptstore().common_epoch(&ranks).unwrap(), 2);
    assert_durable_wave(&provider, &dir, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_mirror_with_recovery_keeps_the_common_wave_consistent() {
    let dir = std::env::temp_dir().join(format!("spbc-disk-rec-{}", std::process::id()));
    let w = Workload::MiniGhost;
    let base = native(w);
    let provider = durable_provider(&dir, 3);
    let report = Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .plans(vec![FailurePlan::nth(RankId(5), 5)])
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(base.outputs, report.outputs);
    let ranks: Vec<RankId> = (0..WORLD as u32).map(RankId).collect();
    // All three waves (iterations 3, 6, 9) committed everywhere despite the
    // mid-run rollback of cluster {4,5}. Service GC keeps the last two, so
    // the newest common wave is what is checked.
    assert_eq!(provider.ckptstore().common_epoch(&ranks).unwrap(), 3);
    assert_durable_wave(&provider, &dir, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
