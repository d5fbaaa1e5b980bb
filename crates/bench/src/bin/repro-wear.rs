//! Ablation: PCM wear by address-map region per drain scheme.
//!
//! Not a paper figure, but the paper's §II-D argues metadata updates
//! cause "premature wear-out"; this shows where each scheme concentrates
//! its drain writes. Note the flip side of Horus: it writes 8-10x fewer
//! blocks, but always into the *same* CHV region, so repeated episodes
//! wear those cells — the practical argument for rotating the CHV base
//! (cheap, since the region is indexed from an on-chip register).

use horus_bench::cli::{HarnessArgs, SWEEP_ONLY_FLAGS};
use horus_bench::{paper_fill, table};
use horus_core::{DrainScheme, SecureEpdSystem, SystemConfig};
use horus_workload::fill_hierarchy;

fn main() {
    let args = HarnessArgs::parse_or_exit_refusing("repro-wear", SWEEP_ONLY_FLAGS);
    let cfg = SystemConfig::with_llc_bytes(8 << 20);
    println!(
        "PCM wear by region after one worst-case drain ({} MB LLC)\n",
        8
    );
    let mut rows = Vec::new();
    for scheme in DrainScheme::ALL {
        let mut sys = SecureEpdSystem::for_scheme(cfg.clone(), scheme);
        fill_hierarchy(sys.hierarchy_mut(), paper_fill(), cfg.data_bytes, cfg.seed);
        sys.crash_and_drain(scheme);
        let map = sys.map().clone();
        let wear = sys.platform().nvm.wear();
        let data = wear.writes_in_range(0, map.data_blocks());
        let counters = wear.writes_in_range(map.counter_block_addr(0), map.counter_blocks());
        let macs = wear.writes_in_range(map.mac_block_addr(0), map.data_blocks() / 8);
        let tree: u64 = (0..map.bmt_levels())
            .map(|l| wear.writes_in_range(map.bmt_node_addr(l, 0), map.bmt_level_nodes(l)))
            .sum();
        let chv = wear.writes_in_range(map.chv_base(), map.chv_blocks());
        let shadow = wear.writes_in_range(map.shadow_base(), map.shadow_blocks());
        rows.push(vec![
            scheme.name().to_owned(),
            data.to_string(),
            counters.to_string(),
            macs.to_string(),
            tree.to_string(),
            chv.to_string(),
            shadow.to_string(),
            wear.max_wear().to_string(),
            format!("{:.2}", wear.mean_wear()),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "scheme",
                "data",
                "counters",
                "MACs",
                "tree",
                "CHV",
                "shadow",
                "max/block",
                "mean/block"
            ],
            &rows,
        )
    );
    args.trace_or_exit(&cfg, DrainScheme::HorusSlm);
}
