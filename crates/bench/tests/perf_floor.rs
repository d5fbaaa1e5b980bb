//! Release-mode throughput floor: the smoke-plan episode must retire
//! simulated cycles at a rate no optimized build should ever miss.
//!
//! The floor is deliberately conservative — a release build on the
//! slowest CI runner clears it by more than an order of magnitude — so
//! it never flakes on runner noise. What it catches is the
//! catastrophic class of regression: an accidental `O(n²)` on the
//! per-op path, a debug build smuggled into the bench job, a hot-path
//! allocation loop. Fine-grained drift is the bench gate's 25%
//! `ops_per_sec` band; this is the tripwire underneath it.
//!
//! Ignored in debug builds (debug is routinely 30x slower and the
//! floor would either flake or mean nothing). The CI bench job runs it
//! with `cargo test --release -p horus-bench --test perf_floor`.

use horus_bench::bench_gate;
use horus_bench::repro_all::ReproPlan;

/// Simulated cycles retired per wall second that any release build
/// must exceed. With AES-NI crypto, release builds measure ~0.8-1.3e9/s
/// on one thread of a shared 2-CPU x86-64 host; debug builds ~1e7/s. The
/// floor sits at the old *pre-speedup* release rate, so even a slow or
/// busy host clears it by 2x+ while any catastrophic regression still
/// trips.
const SIM_CYCLES_PER_SEC_FLOOR: f64 = 2.0e8;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "throughput floor is only meaningful in release builds"
)]
fn smoke_episode_clears_the_simulated_cycles_floor() {
    let plan = ReproPlan::smoke();
    let rates = bench_gate::measure_throughput(&plan);
    let cycles = rates
        .iter()
        .find(|t| t.metric == "sim_cycles")
        .expect("measure_throughput reports sim_cycles");
    assert!(
        cycles.per_sec > SIM_CYCLES_PER_SEC_FLOOR,
        "simulator throughput collapsed: {:.3e} sim cycles/s is below the \
         {SIM_CYCLES_PER_SEC_FLOOR:.1e}/s floor — profile the per-op hot path \
         (crates/sim schedule/stats, crates/crypto AES/CMAC, crates/nvm device)",
        cycles.per_sec
    );
}
