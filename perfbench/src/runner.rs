//! Set-up, single runs, and the bitwise correctness check every run passes
//! through.

use crate::measure::{process_cpu, release_free_memory, PeakRss};
use crate::spans::Spans;
use crate::workload::{runtime_config, Spec, CLUSTERS, RANKS_PER_NODE, WORLD};
use mini_mpi::error::Result;
use mini_mpi::failure::FailurePlan;
use mini_mpi::ft::{FtProvider, NativeProvider};
use mini_mpi::types::RankId;
use mini_mpi::{AppFn, RunReport, Runtime};
use spbc_clustering::{partition, CommGraph, PartitionOpts};
use spbc_core::{ClusterMap, MetricsSnapshot, Phase, SpbcProvider, Storage};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A directory deleted when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which configuration a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `NativeProvider`: the substrate with no fault tolerance.
    Native,
    /// The workload under SPBC.
    Spbc,
    /// The workload under SPBC with checkpointing off (accounting twin).
    Twin,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Native => "launch.native",
            Kind::Spbc => "launch.spbc",
            Kind::Twin => "launch.twin",
        }
    }
}

/// An SPBC provider kept alive after its run, with the storage directory it
/// writes to (dropped after the provider, so the directory goes last).
pub struct Kept {
    pub provider: Arc<SpbcProvider>,
    _dir: Option<TempDir>,
}

/// What one run produced.
pub struct RunOut {
    pub wall: Duration,
    pub cpu: Duration,
    /// Peak resident memory during an SPBC run, MB (0 for native runs).
    pub peak_rss_mb: f64,
    pub report: Option<RunReport>,
    pub snap: Option<MetricsSnapshot>,
    pub kept: Option<Kept>,
}

/// Set-up timings, one entry per repetition.
pub struct SetupTimes {
    pub setup_s: Vec<f64>,
    pub partition_ms: Vec<f64>,
}

/// One workload instance: the application for a seed, its clustering and
/// native reference outputs, and the run/failure counters.
pub struct Bench {
    pub spec: &'static Spec,
    app: Arc<AppFn>,
    reference: Vec<Vec<u8>>,
    pub clusters: ClusterMap,
    /// Ranks of the victim's cluster (the cluster that restarts when the
    /// workload injects a failure).
    pub victim_cluster: Vec<usize>,
    scratch: PathBuf,
    runs: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// The interior rank killed by failure-injecting workloads.
pub const VICTIM: RankId = RankId((WORLD / 2) as u32);

impl Bench {
    /// Set the workload up `reps` times: a native profiling run (whose
    /// outputs become the bitwise reference), `clustering::partition` of its
    /// communication graph, and SPBC provider + storage construction.
    pub fn setup(
        spec: &'static Spec,
        seed: u64,
        scratch: PathBuf,
        reps: usize,
        spans: &Spans,
    ) -> std::result::Result<(Bench, SetupTimes), String> {
        let mut bench = Bench {
            spec,
            app: spec.app.build(spec.params(seed)),
            reference: Vec::new(),
            clusters: ClusterMap::single(WORLD),
            victim_cluster: Vec::new(),
            scratch,
            runs: 0,
            attempted: 0,
            failed: 0,
        };
        let mut times = SetupTimes { setup_s: Vec::new(), partition_ms: Vec::new() };
        for rep in 0..reps {
            let setup_span = spans.enter("setup");
            let t0 = Instant::now();
            let report = {
                let _s = spans.enter("setup.native_profile");
                Runtime::builder(runtime_config(false))
                    .provider(Arc::new(NativeProvider))
                    .app(Arc::clone(&bench.app))
                    .launch()
                    .and_then(RunReport::ok)
            };
            bench.attempted += 1;
            let report = report.map_err(|e| format!("native profiling run failed: {e}"))?;
            let t_part = Instant::now();
            let clusters = {
                let _s = spans.enter("setup.partition");
                let graph = CommGraph::from_matrix(spbc_trace::comm_matrix(&report.stats));
                let opts = PartitionOpts {
                    node_size: RANKS_PER_NODE,
                    slack: 1,
                    ..PartitionOpts::default()
                };
                ClusterMap::from_assignment(partition(&graph, CLUSTERS, &opts))
            };
            let partition_s = t_part.elapsed().as_secs_f64();
            let provider = {
                let _s = spans.enter("setup.provider");
                bench.spbc_provider(&clusters, Kind::Spbc)
            };
            times.setup_s.push(t0.elapsed().as_secs_f64());
            times.partition_ms.push(partition_s * 1e3);
            drop(setup_span);
            provider.map_err(|e| format!("provider set-up failed: {e}"))?;
            if rep == 0 {
                bench.reference = report.outputs;
                bench.clusters = clusters;
            } else if report.outputs != bench.reference || clusters != bench.clusters {
                bench.failed += 1;
                eprintln!("perfbench: set-up repetition {rep} differs from the first");
            }
        }
        let victim_c = bench.clusters.cluster_of(VICTIM);
        bench.victim_cluster = bench.clusters.members(victim_c).iter().map(|r| r.idx()).collect();
        Ok((bench, times))
    }

    /// A fresh SPBC provider (with its own storage directory when the
    /// workload keeps checkpoints on disk).
    fn spbc_provider(
        &mut self,
        clusters: &ClusterMap,
        kind: Kind,
    ) -> Result<(Arc<SpbcProvider>, Option<TempDir>)> {
        let cfg = self.spec.spbc_config(kind == Kind::Spbc);
        let provider = SpbcProvider::new(clusters.clone(), cfg);
        if !self.spec.disk {
            return Ok((Arc::new(provider), None));
        }
        self.runs += 1;
        let dir = TempDir::create(self.scratch.join(format!("run-{}", self.runs)))
            .map_err(|e| mini_mpi::error::MpiError::app(format!("storage dir: {e}")))?;
        let provider = provider.with_storage(Storage::disk_root(dir.path()))?;
        Ok((Arc::new(provider), Some(dir)))
    }

    /// Run the workload once as `kind`, verify its outputs, and count it.
    /// `keep` returns the SPBC provider (and its storage) for inspection.
    pub fn run(&mut self, spans: &Spans, kind: Kind, traced: bool, keep: bool) -> RunOut {
        let spbc = match kind {
            Kind::Native => None,
            _ => match self.spbc_provider(&self.clusters.clone(), kind) {
                Ok(p) => Some(p),
                Err(e) => {
                    self.attempted += 1;
                    self.failed += 1;
                    eprintln!("perfbench: {}: provider set-up failed: {e}", kind.label());
                    return RunOut {
                        wall: Duration::ZERO,
                        cpu: Duration::ZERO,
                        peak_rss_mb: 0.0,
                        report: None,
                        snap: None,
                        kept: None,
                    };
                }
            },
        };
        let provider: Arc<dyn FtProvider> = match &spbc {
            Some((p, _)) => p.clone(),
            None => Arc::new(NativeProvider),
        };
        let plans = if kind == Kind::Spbc && self.spec.fail_last_iter {
            vec![FailurePlan::nth(VICTIM, self.spec.iters)]
        } else {
            Vec::new()
        };
        let app = Arc::clone(&self.app);
        let (wall, cpu, peak_rss_mb, result) = {
            let _s = spans.enter(kind.label());
            // Start each SPBC run from live memory only, and watch its peak.
            let rss = (kind != Kind::Native).then(|| {
                release_free_memory();
                PeakRss::start()
            });
            let cpu0 = process_cpu();
            let t0 = Instant::now();
            let result = Runtime::builder(runtime_config(traced))
                .provider(provider)
                .app(app)
                .plans(plans)
                .launch()
                .and_then(RunReport::ok);
            let (wall, cpu) = (t0.elapsed(), process_cpu() - cpu0);
            (wall, cpu, rss.map_or(0.0, PeakRss::stop), result)
        };
        let snap = spbc.as_ref().map(|(p, _)| {
            // Let the background writer finish before the storage goes away.
            let _ = p.ckptstore().flush_all();
            p.metrics().snapshot()
        });
        let verdict = match &result {
            Ok(report) => self.check(kind, report, snap.as_ref()),
            Err(e) => Err(format!("run failed: {e}")),
        };
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: {} {}: {why}", self.spec.name, kind.label());
        }
        let kept = match spbc {
            Some((provider, dir)) if keep => Some(Kept { provider, _dir: dir }),
            _ => None,
        };
        RunOut { wall, cpu, peak_rss_mb, report: result.ok(), snap, kept }
    }

    /// The correctness check: outputs bitwise equal to the native
    /// reference, and the protocol did exactly what the workload schedules —
    /// one handled failure with replay for a failure workload, none
    /// otherwise; no checkpoint waves when the schedule has none; no restore
    /// or replay without a failure.
    fn check(
        &self,
        kind: Kind,
        report: &RunReport,
        snap: Option<&MetricsSnapshot>,
    ) -> std::result::Result<(), String> {
        if report.outputs != self.reference {
            return Err("outputs differ from the native reference".into());
        }
        let expect_failure = kind == Kind::Spbc && self.spec.fail_last_iter;
        if report.failures_handled != usize::from(expect_failure) {
            return Err(format!("{} failures handled", report.failures_handled));
        }
        let Some(m) = snap else { return Ok(()) };
        let restored = [
            Phase::RestoreLoad,
            Phase::RestoreMaterialize,
            Phase::RestoreRepair,
            Phase::RestoreReplay,
        ]
        .iter()
        .any(|&p| !m.phases.get(p).is_empty());
        if expect_failure {
            if m.replayed_msgs == 0 || m.rollbacks == 0 {
                return Err("recovery replayed no logged messages".into());
            }
        } else if restored || m.replayed_msgs > 0 || m.rollbacks > 0 {
            return Err("failure-free run restored or replayed".into());
        }
        let ckpt_on = kind == Kind::Spbc && self.spec.ckpt_interval > 0;
        if !ckpt_on && m.checkpoints > 0 {
            return Err(format!("{} checkpoint commits with checkpointing off", m.checkpoints));
        }
        if ckpt_on && m.checkpoints == 0 {
            return Err("no checkpoint committed".into());
        }
        Ok(())
    }

    /// Rework time of the victim's cluster: the largest final-epoch
    /// `RankStats::total_time` over its ranks. Without a failure nothing
    /// restarts, so this is the cluster's failure-free run time.
    pub fn recovery_s(&self, report: &RunReport) -> f64 {
        self.victim_cluster
            .iter()
            .map(|&r| report.stats[r].total_time.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Iterations the victim's cluster re-executes: from the last wave
    /// before the failure to the end (the whole run without a failure).
    pub fn reexec_iters(&self) -> u64 {
        let s = self.spec;
        if !s.fail_last_iter || s.ckpt_interval == 0 {
            return s.iters;
        }
        s.iters - (s.iters - 1) / s.ckpt_interval * s.ckpt_interval
    }
}
