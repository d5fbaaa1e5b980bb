//! Reproduces Table I: the simulated system configuration.

use horus_bench::cli::{HarnessArgs, SWEEP_ONLY_FLAGS};
use horus_bench::figures;
use horus_core::{DrainScheme, SystemConfig};

fn main() {
    let args = HarnessArgs::parse_or_exit_refusing("repro-config", SWEEP_ONLY_FLAGS);
    let cfg = SystemConfig::paper_default();
    println!("Table I — simulation configuration\n");
    println!("{}", figures::table1(&cfg).render());
    args.trace_or_exit(&cfg, DrainScheme::HorusSlm);
}
