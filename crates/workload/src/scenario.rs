//! From a placed rack + hour of day to a ready-to-run simulation.
//!
//! [`rack_spec_for`] is the glue the experiment harness calls in a loop:
//! it derives the effective load (rack factor × diurnal weight × per-hour
//! jitter), builds the rack-shared ML step clock, and describes one
//! generator per task instance — all as a declarative [`ScenarioSpec`]
//! that sweeps can clone, serialize, and ship across worker threads.

use crate::diurnal::Diurnal;
use crate::placement::RackSpec;
use crate::spec::{GenSpec, ScenarioSpec};
use crate::tasks::{MlPhase, TaskKind};
use millisampler::RunConfig;
use ms_dcsim::{Ns, SimRng};

/// Sweep-level knobs shared by all racks of an experiment.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Millisampler buckets per run (paper: 2000 × 1 ms = 2 s; sweep
    /// default 500 × 1 ms = 0.5 s to keep full-region sweeps tractable).
    pub buckets: usize,
    /// Sampling interval.
    pub interval: Ns,
    /// MSS used by transports. Sweeps default to 4500 B (jumbo-ish) to cut
    /// event counts ~3×; validation and microbenches use 1500 B.
    pub mss: u32,
    /// Warm-up before the sampler window.
    pub warmup: Ns,
    /// Max host clock skew (± uniform).
    pub max_clock_skew: Ns,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            buckets: 500,
            interval: Ns::from_millis(1),
            mss: 4500,
            warmup: Ns::from_millis(150),
            max_clock_skew: Ns::from_micros(300),
        }
    }
}

impl ScenarioConfig {
    /// The effective sampler run configuration.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            interval: self.interval,
            buckets: self.buckets,
            count_flows: true,
        }
    }
}

/// The effective load multiplier for `(rack, hour)`: rack base factor ×
/// diurnal weight × deterministic per-hour jitter.
pub fn effective_load(spec: &RackSpec, diurnal: &Diurnal, hour: usize, run_idx: u64) -> f64 {
    let mut rng = SimRng::new(
        spec.seed ^ (hour as u64).wrapping_mul(0x9E37_79B9) ^ run_idx.wrapping_mul(0x85EB_CA6B),
    );
    let jitter = 1.0 + spec.hourly_jitter * (2.0 * rng.next_f64() - 1.0);
    (spec.load_factor * diurnal.weight(hour) * jitter).max(0.05)
}

/// Describes the simulation for one `(rack, hour, run)` cell as a
/// declarative [`ScenarioSpec`].
pub fn rack_spec_for(
    spec: &RackSpec,
    diurnal: &Diurnal,
    hour: usize,
    run_idx: u64,
    cfg: &ScenarioConfig,
) -> ScenarioSpec {
    let servers = spec.num_servers();
    let sim_seed = spec.seed
        ^ (hour as u64).wrapping_mul(0xC2B2_AE3D)
        ^ run_idx.wrapping_mul(0x27D4_EB2F)
        ^ 0x5EED;
    let mut scenario = ScenarioSpec::new(servers, sim_seed);
    scenario.sampler = cfg.run_config();
    scenario.mss = cfg.mss;
    scenario.warmup = cfg.warmup;
    scenario.max_clock_skew = cfg.max_clock_skew;

    let load = effective_load(spec, diurnal, hour, run_idx);

    // Rack-shared ML step clock: all trainers in the rack step together
    // (synchronized training), which is what makes ML-dense racks
    // persistently contended.
    let mut rack_rng = SimRng::new(spec.seed ^ 0x111);
    let ml_phase = MlPhase {
        period: Ns::from_micros(24_000 + rack_rng.gen_range(8_000)), // 24-32ms
        phase: Ns(rack_rng.gen_range(10_000_000)),                   // 0-10ms
    };

    // §8.1: RegA-High racks correlate with congestion discards *in the
    // fabric*; the same congestion smooths bursts before they arrive at
    // the rack ("similar contention levels could result in less loss, and
    // also result in somewhat smoother bursts arriving downstream at the
    // racks"). ML-dense racks therefore receive all ingress pre-smoothed.
    if spec.class == crate::placement::RackClass::MlDense {
        scenario.fabric_smoothing_bps = Some(ms_dcsim::Bps(11_000_000_000));
    }

    let mut gen_rng = SimRng::new(sim_seed ^ 0x6E45);
    let mut chatter_rng = SimRng::new(sim_seed ^ 0xCAA7);
    for t in &spec.tasks {
        let phase = (t.kind == TaskKind::MlTrainer).then_some(ml_phase);
        scenario.generators.push(GenSpec {
            kind: t.kind,
            server: t.server,
            task: t.task,
            load,
            seed: gen_rng.fork(t.server as u64).state(),
            ml_phase: phase,
        });
        // Persistent-connection keepalive chatter: a few thousand tiny
        // packets per second from a pool of dozens of long-lived
        // connections (Fig. 8's outside-burst connection floor).
        let pool = 25 + chatter_rng.gen_range(50); // 25-74 standing conns
        let rate = (3_000.0 + 5_000.0 * chatter_rng.next_f64()) * load.clamp(0.5, 2.0);
        scenario.chatter.push(crate::spec::ChatterSpec {
            server: t.server,
            pool,
            pkts_per_sec: rate as u64,
        });
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{build_region, RackClass, RegionKind};

    #[test]
    fn effective_load_tracks_diurnal() {
        let region = build_region(RegionKind::RegA, 10, 16, 1);
        let spec = &region.racks[0];
        // Average over run indices to wash out jitter.
        let avg = |hour: usize| -> f64 {
            (0..64)
                .map(|r| effective_load(spec, &region.diurnal, hour, r))
                .sum::<f64>()
                / 64.0
        };
        let busy = avg(7);
        let quiet = avg(18);
        assert!(busy > quiet * 1.1, "busy {busy} vs quiet {quiet}");
    }

    #[test]
    fn effective_load_deterministic() {
        let region = build_region(RegionKind::RegB, 5, 16, 2);
        let spec = &region.racks[3];
        let a = effective_load(spec, &region.diurnal, 9, 4);
        let b = effective_load(spec, &region.diurnal, 9, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn ml_dense_rack_gets_trainer_generators() {
        let region = build_region(RegionKind::RegA, 10, 16, 3);
        let spec = region
            .racks
            .iter()
            .find(|r| r.class == RackClass::MlDense)
            .unwrap();
        // Building the sim should not panic (trainers need the phase) and
        // should produce a runnable sim.
        let cfg = ScenarioConfig {
            buckets: 50,
            warmup: Ns::from_millis(10),
            ..ScenarioConfig::default()
        };
        let mut sim = rack_spec_for(spec, &region.diurnal, 7, 0, &cfg).build();
        let report = sim.run_sync_window(spec.rack_id);
        assert!(report.flows_started > 0);
        assert!(report.rack_run.is_some());
    }
}
