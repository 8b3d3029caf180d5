//! Validation of the FCFS service model against queueing theory: with
//! Poisson arrivals and deterministic service (an M/D/1 queue), the mean
//! wait must match Pollaczek–Khinchine, `W = ρ/(2(1−ρ)) · s`.

use ees_iotrace::{EnclosureId, IoKind, Micros};
use ees_simstorage::{Access, DiskEnclosure, EnclosureConfig};
use ees_workloads::SplitMix64;

/// Measures the mean queueing delay (response − occupancy − latency) for
/// Poisson read arrivals at utilization `rho`.
fn measured_wait(rho: f64, seed: u64) -> f64 {
    let cfg = EnclosureConfig::ams2500();
    let mut e = DiskEnclosure::new(EnclosureId(0), cfg);
    let service = 1.0 / cfg.service.max_random_iops;
    let lambda = rho / service;
    let latency = cfg.service.latency(Access::Random).as_secs_f64();

    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    let mut total_wait = 0.0f64;
    let n = 200_000;
    for _ in 0..n {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / lambda;
        let out = e.submit(Micros::from_secs_f64(t), 4096, IoKind::Read, Access::Random);
        total_wait += out.response.as_secs_f64() - service - latency;
    }
    total_wait / n as f64
}

fn md1_wait(rho: f64) -> f64 {
    let service = 1.0 / 900.0;
    rho / (2.0 * (1.0 - rho)) * service
}

#[test]
fn md1_wait_at_moderate_utilization() {
    for rho in [0.3, 0.5, 0.7] {
        let measured = measured_wait(rho, 42);
        let theory = md1_wait(rho);
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.10,
            "ρ = {rho}: measured {measured:.6}s vs M/D/1 {theory:.6}s ({:.1} % off)",
            rel * 100.0
        );
    }
}

#[test]
fn heavy_utilization_waits_grow_superlinearly() {
    let w50 = measured_wait(0.5, 7);
    let w90 = measured_wait(0.9, 7);
    assert!(
        w90 > 6.0 * w50,
        "ρ = 0.9 wait {w90:.6}s should dwarf ρ = 0.5 wait {w50:.6}s"
    );
}

#[test]
fn sequential_stream_is_faster_than_random() {
    let cfg = EnclosureConfig::ams2500();
    let mut seq = DiskEnclosure::new(EnclosureId(0), cfg);
    let mut rnd = DiskEnclosure::new(EnclosureId(1), cfg);
    // 500 IOPS of each: random is past half its cap, sequential far from.
    let mut seq_sum = 0.0;
    let mut rnd_sum = 0.0;
    for i in 0..10_000u64 {
        let t = Micros(i * 2_000);
        seq_sum += seq
            .submit(t, 65536, IoKind::Read, Access::Sequential)
            .response
            .as_secs_f64();
        rnd_sum += rnd
            .submit(t, 65536, IoKind::Read, Access::Random)
            .response
            .as_secs_f64();
    }
    assert!(
        seq_sum * 5.0 < rnd_sum,
        "sequential ({seq_sum:.3}s total) must be far cheaper than random ({rnd_sum:.3}s)"
    );
}
