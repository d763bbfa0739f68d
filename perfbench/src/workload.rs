//! The three benchmark workloads and the pinned configuration they run
//! under. Every field of the runtime and protocol configuration is set here
//! explicitly, so ambient `SPBC_*` variables cannot change what is measured.

use mini_mpi::config::{RuntimeConfig, TransportKind};
use spbc_apps::{AppParams, Workload};
use spbc_ckptstore::{CdcParams, EcScheme, StoreConfig};
use spbc_core::{ReplayPolicy, SpbcConfig};
use std::time::Duration;

/// Application ranks in every workload.
pub const WORLD: usize = 8;
/// SPBC clusters the profiled communication graph is partitioned into.
pub const CLUSTERS: usize = 4;
/// Ranks per simulated node (clusters never split a node).
pub const RANKS_PER_NODE: usize = 2;
/// Hang-watchdog timeout: a run stalled this long ends in error and counts
/// as a failed operation.
pub const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(20);

/// One named workload: an application, its size, and the protocol schedule.
#[derive(Debug)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The application every rank runs.
    pub app: Workload,
    /// Per-rank state in `f64` elements (8 bytes each).
    pub elems: usize,
    /// Virtual compute per compute unit, microseconds.
    pub sleep_us: u64,
    /// Outer iterations.
    pub iters: u64,
    /// Checkpoint wave every this many iterations (0 = never).
    pub ckpt_interval: u64,
    /// Kill an interior rank at the start of the last iteration.
    pub fail_last_iter: bool,
    /// Keep local checkpoint copies on disk (`Storage::disk_root`).
    pub disk: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    // The checkpoint write path (encode, write/fsync/tier, replicate,
    // commit barrier) dominates: 50 waves over 100 iterations. The virtual
    // compute leaves the host cores idle between waves, so the run is
    // CPU-bound only inside them: a run that saturates the cores
    // throughout times the shared host's speed as much as the program.
    Spec {
        name: "minighost-ckpt",
        app: Workload::MiniGhost,
        elems: 128 * 1024 / 8,
        sleep_us: 4000,
        iters: 100,
        ckpt_interval: 2,
        fail_last_iter: false,
        disk: true,
    },
    // The paper's Table 2 mode: no checkpoints, so the substrate and the
    // sender log do the work and storage does none.
    Spec {
        name: "amg-failfree",
        app: Workload::Amg,
        elems: 4 * 1024 / 8,
        sleep_us: 0,
        iters: 400,
        ckpt_interval: 0,
        fail_last_iter: false,
        disk: false,
    },
    // One wave at the midpoint, one failure at the last iteration: storage
    // serves reads (restore) and log replay feeds the rework. The virtual
    // compute leaves the host cores idle part of the time, as above.
    Spec {
        name: "minighost-recover",
        app: Workload::MiniGhost,
        elems: 64 * 1024 / 8,
        sleep_us: 1000,
        iters: 200,
        ckpt_interval: 100,
        fail_last_iter: true,
        disk: true,
    },
];

impl Spec {
    /// Look a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    /// Application parameters for `seed`.
    pub fn params(&self, seed: u64) -> AppParams {
        AppParams { seed, ..self.app.timed_params(self.iters, self.elems, self.sleep_us) }
    }

    /// Protocol configuration with every field pinned. `ckpt` off gives the
    /// no-checkpoint twin of the same workload.
    pub fn spbc_config(&self, ckpt: bool) -> SpbcConfig {
        let cdc = CdcParams::default();
        let mut c = SpbcConfig::default();
        c.ckpt_interval = if ckpt { self.ckpt_interval } else { 0 };
        c.replay_window = spbc_core::replay::DEFAULT_REPLAY_WINDOW;
        c.enforce_ident = true;
        c.replay_policy = ReplayPolicy::Windowed;
        c.free_logs_on_checkpoint = false;
        c.replicas = 2;
        c.async_ckpt_writes = true;
        c.ckpt_chunk = spbc_ckptstore::chunk::DEFAULT_CHUNK_SIZE;
        c.ckpt_full_every = spbc_ckptstore::chunk::DEFAULT_FULL_EVERY;
        c.ckpt_cdc = true;
        c.cdc_min = cdc.min;
        c.cdc_avg = cdc.avg;
        c.cdc_max = cdc.max;
        c.metrics_interval_ms = 0;
        c.ec_scheme = "off".to_string();
        c.ec_group = 4;
        c.ec_m = 2;
        c.tier_policy = "mem:0,local:all".to_string();
        c.lose_local_on_failure = false;
        c.store_shards = 8;
        c.write_queue = 64;
        c.batch_bytes = 1 << 20;
        c.batch_linger_us = 0;
        c
    }
}

/// Storage-service configuration matching [`Spec::spbc_config`], for the
/// layer probes that build a service of their own.
pub fn store_config() -> StoreConfig {
    let c = WORKLOADS[0].spbc_config(true);
    let mut s = StoreConfig::default();
    s.async_writes = c.async_ckpt_writes;
    s.durable_partner_copies = false;
    s.partner_keep = 2;
    s.chunk_size = c.ckpt_chunk;
    s.full_every = c.ckpt_full_every;
    s.cdc = c.ckpt_cdc;
    s.cdc_params = CdcParams { min: c.cdc_min, avg: c.cdc_avg, max: c.cdc_max };
    s.ec = EcScheme::Off;
    s.sets = None;
    s.tier_policy = c.tier_policy;
    s.shards = c.store_shards;
    s.write_queue = c.write_queue;
    s.batch_bytes = c.batch_bytes;
    s.batch_linger_us = c.batch_linger_us;
    s
}

/// Runtime configuration with every field pinned; `traced` turns the
/// flight recorder on.
pub fn runtime_config(traced: bool) -> RuntimeConfig {
    let mut c = RuntimeConfig::new(WORLD);
    c.world_size = WORLD;
    c.service_ranks = 0;
    c.ranks_per_node = RANKS_PER_NODE;
    c.eager_threshold = 16 * 1024;
    c.deadlock_timeout = DEADLOCK_TIMEOUT;
    c.poll_interval = Duration::from_micros(200);
    c.perturb = None;
    c.flight_recorder = traced.then_some(spbc_core::env::TRACE_RING_CAPACITY);
    c.payload_digests = true;
    c.transport = TransportKind::InProc;
    c
}

/// Remove every `SPBC_*` variable from this process's environment and
/// return the names removed. Call before any thread starts.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPBC_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}
