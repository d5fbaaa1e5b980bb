//! Ablation: run-time cost of the lazy vs eager update schemes.
//!
//! The paper's premise (§II-C, §IV-B) is that EPD systems run the
//! *recovery-oblivious lazy* scheme at run time because it is faster —
//! eager pays a full tree-path update (one MAC per level, all the way to
//! the root) on every NVM write. This harness measures both schemes on
//! the same write-back stream and prints the per-write cost, plus how the
//! metadata caches absorbed it.

use horus_bench::cli::{HarnessArgs, SWEEP_ONLY_FLAGS};
use horus_bench::table;
use horus_core::{DrainScheme, SecureEpdSystem, SystemConfig};
use horus_metadata::UpdateScheme;
use horus_workload::{AccessTrace, Op, TraceConfig};

fn run(scheme: UpdateScheme, trace: &AccessTrace) -> Vec<String> {
    let mut cfg = SystemConfig::with_llc_bytes(1 << 20);
    cfg.scheme = scheme;
    let mut sys = SecureEpdSystem::new(cfg);
    for op in trace {
        match *op {
            Op::Write { addr, value } => sys.write(addr, [value; 64]).expect("write"),
            Op::Read { addr } => {
                sys.read(addr).expect("read");
            }
        }
    }
    let stats = sys.platform().merged_stats();
    let nvm_writes = stats.get("mem.write.data");
    let cycles = sys.platform().busy_until().0;
    vec![
        scheme.to_string(),
        nvm_writes.to_string(),
        stats.sum_prefix("macop.").to_string(),
        format!(
            "{:.1}",
            stats.sum_prefix("macop.") as f64 / nvm_writes.max(1) as f64
        ),
        stats.get("macop.update_tree").to_string(),
        stats.sum_prefix("mem.read.").to_string(),
        format!(
            "{:.1}%",
            100.0 * sys.metadata().counter_cache().hits() as f64
                / (sys.metadata().counter_cache().hits() + sys.metadata().counter_cache().misses())
                    .max(1) as f64
        ),
        cycles.to_string(),
    ]
}

fn main() {
    let args = HarnessArgs::parse_or_exit_refusing("repro-runtime", SWEEP_ONLY_FLAGS);
    // A cache-hostile stream: mostly-cold writes so a large fraction of
    // stores become NVM write-backs.
    let trace = AccessTrace::generate(&TraceConfig {
        ops: 400_000,
        write_fraction: 0.7,
        working_set_blocks: 4096,
        locality: 0.3,
        total_blocks: 4 << 20, // 256 MB of the protected space
        seed: 7,
    });
    println!(
        "run-time update-scheme ablation over {} ops ({} writes):\n",
        trace.len(),
        trace.writes()
    );
    let rows = vec![
        run(UpdateScheme::Lazy, &trace),
        run(UpdateScheme::Eager, &trace),
    ];
    println!(
        "{}",
        table::render(
            &[
                "scheme",
                "NVM data writes",
                "MAC ops",
                "MACs/write",
                "tree updates",
                "metadata reads",
                "ctr$ hit rate",
                "busy cycles",
            ],
            &rows,
        )
    );
    println!("the eager scheme pays a full path of tree-update MACs per write-back,");
    println!("which is exactly why EPD systems run lazy at run time — and why the");
    println!("baseline EPD drain then explodes (the tree is stale at crash time).");
    args.trace_or_exit(&SystemConfig::small_test(), DrainScheme::HorusSlm);
}
