//! Ablation: how metadata-cache capacity shapes the baseline drain.
//!
//! The §III blow-up is a *miss-rate* phenomenon: the worst-case sparse
//! hierarchy defeats the metadata caches, so every flushed line fetches
//! and evicts metadata. Growing the caches barely helps (the working set
//! is the whole flushed footprint), which is the deeper argument for
//! Horus's approach of not touching the metadata at all.

use horus_bench::cli::{HarnessArgs, SWEEP_ONLY_FLAGS};
use horus_bench::{paper_fill, table};
use horus_core::{DrainScheme, SecureEpdSystem, SystemConfig};
use horus_metadata::MetadataCacheConfig;
use horus_workload::fill_hierarchy;

fn main() {
    let args = HarnessArgs::parse_or_exit_refusing("repro-metacache", SWEEP_ONLY_FLAGS);
    println!("Base-LU drain vs metadata-cache capacity (8 MB LLC, worst-case fill)\n");
    let mut rows = Vec::new();
    for scale in [1u64, 4, 16] {
        let mut cfg = SystemConfig::with_llc_bytes(8 << 20);
        cfg.metadata_caches = MetadataCacheConfig {
            counter_cache_bytes: scale * 256 * 1024,
            mac_cache_bytes: scale * 512 * 1024,
            tree_cache_bytes: scale * 256 * 1024,
            ..MetadataCacheConfig::paper_default()
        };
        let mut sys = SecureEpdSystem::for_scheme(cfg.clone(), DrainScheme::BaseLazy);
        fill_hierarchy(sys.hierarchy_mut(), paper_fill(), cfg.data_bytes, cfg.seed);
        let horus_writes = {
            let mut h = SecureEpdSystem::for_scheme(cfg.clone(), DrainScheme::HorusSlm);
            fill_hierarchy(h.hierarchy_mut(), paper_fill(), cfg.data_bytes, cfg.seed);
            h.crash_and_drain(DrainScheme::HorusSlm).writes
        };
        let r = sys.crash_and_drain(DrainScheme::BaseLazy);
        rows.push(vec![
            format!("{}x (={} KB ctr$)", scale, scale * 256),
            r.memory_requests().to_string(),
            format!("{:.2} ms", r.seconds * 1e3),
            horus_writes.to_string(),
            format!("{:.1}x", r.memory_requests() as f64 / horus_writes as f64),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "metadata caches",
                "Base-LU requests",
                "Base-LU time",
                "Horus writes",
                "gap"
            ],
            &rows,
        )
    );
    println!("even 16x larger metadata caches leave the baseline several times more");
    println!("expensive than Horus: the sparse worst case defeats caching by design.");
    args.trace_or_exit(
        &SystemConfig::with_llc_bytes(8 << 20),
        DrainScheme::BaseLazy,
    );
}
