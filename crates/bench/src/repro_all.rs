//! The full-reproduction pipeline behind the `repro-all` binary.
//!
//! Living in the library (rather than the binary) so the integration
//! tests can drive it: the acceptance contract is that the generated
//! `EXPERIMENTS.md` markdown is **byte-identical** for any `--jobs`
//! count, and that an immediately repeated invocation against a warm
//! result cache re-executes zero simulations. To keep that true,
//! nothing nondeterministic — wall-clock time, worker counts, cache-hit
//! ratios — may be rendered into the markdown; such accounting goes to
//! stderr in the binary instead.

use crate::figures;
use horus_core::{DrainScheme, SystemConfig};
use horus_harness::Harness;
use std::fmt::Write as _;

/// Which experiment points to run: the paper's Table I scale for the
/// binary, a miniature scale for tests exercising the same pipeline.
#[derive(Debug, Clone)]
pub struct ReproPlan {
    /// Base configuration every experiment derives from.
    pub base: SystemConfig,
    /// LLC sizes (bytes) for the Figure 14/15 sweep.
    pub sweep_llc: Vec<u64>,
    /// LLC sizes (bytes) for the Figure 16 recovery sweep.
    pub recovery_llc: Vec<u64>,
    /// Suffix for the generated header (e.g. " (--quick)").
    pub label: &'static str,
}

impl ReproPlan {
    /// The paper's full evaluation: Table I base, 8–32 MB LLC sweep,
    /// 8–128 MB recovery sweep.
    #[must_use]
    pub fn full() -> Self {
        Self {
            base: SystemConfig::paper_default(),
            sweep_llc: vec![8 << 20, 16 << 20, 32 << 20],
            recovery_llc: vec![8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20],
            label: "",
        }
    }

    /// `--quick`: same base, shrunken sweeps (useful while iterating).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sweep_llc: vec![8 << 20, 16 << 20],
            recovery_llc: vec![8 << 20, 16 << 20],
            label: " (--quick)",
            ..Self::full()
        }
    }

    /// Test scale: the same pipeline over [`SystemConfig::small_test`]
    /// so a full run takes milliseconds. The measured values are *not*
    /// expected to match the paper's claims at this scale.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            base: SystemConfig::small_test(),
            sweep_llc: vec![4 << 10, 8 << 10],
            recovery_llc: vec![4 << 10, 8 << 10],
            label: " (smoke plan)",
        }
    }
}

/// One headline claim with its reproduction tolerance.
///
/// Tolerances are deliberately claim-specific: request/MAC *counts* are
/// structural (the simulator flushes the same block population the
/// paper does, so they reproduce tightly), while drain-*time* ratios
/// also fold in the timing model's divergence from the paper's gem5
/// testbed and get more slack.
#[derive(Debug, Clone)]
pub struct ClaimCheck {
    /// Human-readable claim, as worded in the headline table.
    pub claim: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// This run's measured value.
    pub measured: f64,
    /// Maximum allowed relative deviation, e.g. `0.20` for ±20%.
    pub tolerance: f64,
    /// Decimal places when rendering the values.
    pub precision: usize,
}

impl ClaimCheck {
    /// Whether the measured value is within the stated tolerance of the
    /// paper's value.
    #[must_use]
    pub fn within_tolerance(&self) -> bool {
        ((self.measured - self.paper) / self.paper).abs() <= self.tolerance
    }
}

/// Computes the headline-claim checks from the five-scheme comparison.
#[must_use]
pub fn claim_checks(cmp: &figures::SchemeComparison) -> Vec<ClaimCheck> {
    let by = |scheme: DrainScheme| {
        cmp.reports
            .iter()
            .find(|r| r.scheme == scheme.name())
            .expect("scheme present in comparison")
    };
    let ns = by(DrainScheme::NonSecure);
    let lu = by(DrainScheme::BaseLazy);
    let eu = by(DrainScheme::BaseEager);
    let slm = by(DrainScheme::HorusSlm);
    let dlm = by(DrainScheme::HorusDlm);
    let r = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    vec![
        ClaimCheck {
            claim: "Base-LU memory accesses vs non-secure",
            paper: 10.3,
            measured: r(lu.memory_requests(), ns.memory_requests()),
            tolerance: 0.20,
            precision: 1,
        },
        ClaimCheck {
            claim: "Base-EU memory accesses vs non-secure",
            paper: 9.5,
            measured: r(eu.memory_requests(), ns.memory_requests()),
            tolerance: 0.20,
            precision: 1,
        },
        ClaimCheck {
            claim: "Horus memory-request reduction vs Base-LU",
            paper: 8.0,
            measured: r(lu.memory_requests(), slm.memory_requests()),
            tolerance: 0.20,
            precision: 1,
        },
        ClaimCheck {
            claim: "Horus MAC-calculation reduction vs Base-LU",
            paper: 7.8,
            measured: r(lu.mac_ops, slm.mac_ops),
            tolerance: 0.20,
            precision: 1,
        },
        ClaimCheck {
            claim: "Base-LU drain time vs Horus",
            paper: 4.5,
            measured: r(lu.cycles, slm.cycles),
            tolerance: 0.45,
            precision: 1,
        },
        ClaimCheck {
            claim: "Base-EU drain time vs Horus",
            paper: 5.1,
            measured: r(eu.cycles, slm.cycles),
            tolerance: 0.45,
            precision: 1,
        },
        ClaimCheck {
            claim: "Horus drain time vs non-secure",
            paper: 1.7,
            measured: r(slm.cycles, ns.cycles),
            tolerance: 0.45,
            precision: 1,
        },
        ClaimCheck {
            claim: "Horus-DLM MACs vs Horus-SLM",
            paper: 1.125,
            measured: r(dlm.mac_ops, slm.mac_ops),
            tolerance: 0.05,
            precision: 3,
        },
    ]
}

/// Everything a full reproduction produced.
#[derive(Debug, Clone)]
pub struct ReproAll {
    /// The `EXPERIMENTS.md` content (deterministic — identical for any
    /// worker count and for cached vs fresh runs).
    pub markdown: String,
    /// The headline-claim checks (rendered in the markdown; the binary
    /// exits non-zero when any is out of tolerance).
    pub checks: Vec<ClaimCheck>,
}

impl ReproAll {
    /// The checks whose measured value is out of tolerance.
    #[must_use]
    pub fn failures(&self) -> Vec<&ClaimCheck> {
        self.checks
            .iter()
            .filter(|c| !c.within_tolerance())
            .collect()
    }
}

/// Runs every experiment of the plan on the harness and renders the
/// `EXPERIMENTS.md` markdown. Phase progress goes to stderr; execution
/// accounting is available from [`Harness::totals`] afterwards.
#[must_use]
pub fn run(harness: &Harness, plan: &ReproPlan) -> ReproAll {
    let cfg = &plan.base;
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run --release -p horus-bench --bin repro-all`{}.\n\n\
         Every table/figure of the Horus paper (MICRO 2022) reproduced on this\n\
         repository's from-scratch simulator. Absolute numbers differ from the\n\
         paper (gem5 + McPAT testbed vs. this discrete-event model); the claims\n\
         are about *shape*: who wins, by roughly what factor, and where the\n\
         crossovers are. Paper claims are quoted inline.\n",
        plan.label
    );

    eprintln!("[1/7] Table I…");
    let _ = writeln!(md, "## Table I — simulation configuration\n");
    let _ = writeln!(md, "```\n{}```\n", figures::table1(cfg).render());

    eprintln!("[2/7] Figure 6 (motivation)…");
    let f6 = figures::figure6(harness, cfg);
    let _ = writeln!(
        md,
        "## Figure 6 — memory requests to flush the hierarchy\n\n\
         **Paper:** secure EPD needs **10.3x** (lazy) / **9.5x** (eager) more\n\
         memory accesses than non-secure EPD for 295 936 flushed blocks.\n\n\
         **Measured:**\n\n```\n{}```\n",
        f6.render()
    );

    eprintln!("[3/7] Figures 11-13 (scheme comparison)…");
    let cmp = figures::scheme_comparison(harness, cfg);
    let _ = writeln!(
        md,
        "## Figure 11 — normalized draining time\n\n\
         **Paper:** Base-LU/EU take 4.5x/5.1x longer than Horus; secure\n\
         baselines are 8.6x non-secure, Horus only 1.7x.\n\n\
         **Measured:**\n\n```\n{}```\n",
        cmp.render_fig11()
    );
    let _ = writeln!(
        md,
        "## Figure 12 — breakdown of memory writes\n\n\
         **Paper:** baseline writes are dominated by integrity-tree metadata\n\
         evictions; Horus-DLM writes 8x fewer CHV MAC blocks than Horus-SLM;\n\
         the final metadata flush is negligible everywhere.\n\n\
         **Measured:**\n\n```\n{}```\n",
        cmp.render_fig12()
    );
    let _ = writeln!(
        md,
        "## Figure 13 — breakdown of MAC calculations\n\n\
         **Paper:** Base-EU computes the most MACs (tree updates); Base-LU's\n\
         are dominated by verification; Horus reduces MACs 7.8x, and\n\
         Horus-DLM computes 1.125x Horus-SLM.\n\n\
         **Measured:**\n\n```\n{}```\n",
        cmp.render_fig13()
    );

    eprintln!(
        "[4/7] Figures 14-15 (LLC sweep, {} sizes)…",
        plan.sweep_llc.len()
    );
    let sweep = figures::llc_sweep(harness, cfg, &plan.sweep_llc);
    let _ = writeln!(
        md,
        "## Figure 14 — memory requests vs LLC size (normalized to Base-LU)\n\n\
         **Paper:** both Horus schemes achieve at least a **7.0x** reduction\n\
         in memory requests vs Base-LU at 8/16/32 MB.\n\n\
         **Measured:**\n\n```\n{}```\n",
        sweep.render_fig14()
    );
    let _ = writeln!(
        md,
        "## Figure 15 — MAC calculations vs LLC size (normalized to Base-LU)\n\n\
         **Paper:** at least a **5.8x** reduction vs Base-LU.\n\n\
         **Measured:**\n\n```\n{}```\n",
        sweep.render_fig15()
    );

    eprintln!(
        "[5/7] Figure 16 (recovery sweep, {} sizes)…",
        plan.recovery_llc.len()
    );
    let f16 = figures::figure16(harness, cfg, &plan.recovery_llc);
    let _ = writeln!(
        md,
        "## Figure 16 — recovery time\n\n\
         **Paper:** recovery stays small even at 128 MB LLC: **0.51 s**\n\
         (Horus-SLM) and **0.48 s** (Horus-DLM); linear in LLC size; DLM\n\
         slightly faster (fewer MAC-block reads).\n\n\
         **Measured** (serial read-back, as the paper's estimate assumes):\n\n```\n{}```\n",
        f16.render()
    );

    eprintln!("[6/7] Tables II-III (energy & battery)…");
    let energy = figures::energy_tables(harness, cfg);
    let _ = writeln!(
        md,
        "## Table II — drain energy\n\n\
         **Paper:** Base-LU 11.07 J, Base-EU 12.39 J, Horus-SLM 2.45 J,\n\
         Horus-DLM 2.38 J; processor energy dominates.\n\n\
         **Measured** (constant 170 W platform power substituting McPAT):\n\n```\n{}```\n",
        energy.render_table2()
    );
    let _ = writeln!(
        md,
        "## Table III — hold-up battery volume\n\n\
         **Paper:** Base-LU 30.7 / Base-EU 34.4 vs Horus 6.6-6.8 cm^3\n\
         SuperCap (>=4.4x smaller); Li-thin 0.31-0.34 vs 0.07 cm^3.\n\n\
         **Measured:**\n\n```\n{}```\n",
        energy.render_table3()
    );

    eprintln!("[7/7] headline summary…");
    let checks = claim_checks(&cmp);
    let _ = writeln!(
        md,
        "## Headline claims\n\n\
         `repro-all` exits non-zero when a measured value leaves its\n\
         tolerance band.\n\n\
         | claim | paper | measured | tolerance | within |\n|---|---|---|---|---|"
    );
    for c in &checks {
        let _ = writeln!(
            md,
            "| {} | {:.prec$}x | {:.prec$}x | ±{:.0}% | {} |",
            c.claim,
            c.paper,
            c.measured,
            c.tolerance * 100.0,
            if c.within_tolerance() {
                "yes"
            } else {
                "**NO**"
            },
            prec = c.precision,
        );
    }

    let _ = writeln!(
        md,
        "\n## Where the cycles go — tracing a drain in Perfetto\n\n\
         Every number above can be opened up into a per-resource\n\
         timeline. Record one probed drain episode:\n\n\
         ```\n\
         cargo run --release --bin horus-cli -- trace horus --llc-mb 8 --out drain-trace.json\n\
         ```\n\n\
         The command prints a utilization table (busy fraction and\n\
         queueing-delay percentiles per AES engine, hash engine, and\n\
         PCM bank) plus a critical-path attribution naming the\n\
         bounding resource, and writes `drain-trace.json` in Chrome\n\
         trace-event format. Open <https://ui.perfetto.dev> (or\n\
         `chrome://tracing`), load the file, and you get one track per\n\
         hardware resource (`pcm-bank[0..15]`, `hash`, `aes`) and one\n\
         `phase` track with the drain phases (`drain.data`,\n\
         `drain.metadata`, `drain.finish`) and hierarchy-walk markers.\n\
         Timestamps and durations are simulated cycles; each slice\n\
         carries its `ready` time and queueing `wait` in its args.\n\n\
         Every `repro-*` binary given `--run-dir DIR` records the\n\
         drain behind its headline number the same way, as\n\
         `DIR/drain-trace.json`. In this\n\
         model every scheme is ultimately PCM-bank-bound — Horus\n\
         because 16-way bank parallelism is the only wall left, the\n\
         baselines because their metadata traffic piles onto the same\n\
         banks (bank 0, home of the counter region, saturates first);\n\
         the hash engine runs hot (~70-80% busy) on the baselines but\n\
         hides behind the 2000-cycle PCM writes."
    );

    md.push_str(EPILOGUE);

    ReproAll {
        markdown: md,
        checks,
    }
}

/// Hand-written epilogue sections of `EXPERIMENTS.md`. They live here,
/// not only in the committed file, so a `repro-all` regeneration
/// preserves them instead of truncating the document at the generated
/// tables.
const EPILOGUE: &str = r#"
## Crash-point fault sweep — proving recovery at every cycle

The tables above measure complete drains. `crash-sweep` asks the
harder question: what if the backup power *itself* fails mid-drain?

```
cargo run --release --bin horus-cli -- crash-sweep --quick --out crash-matrix.json
```

For every secure scheme the sweep first runs one probed reference
drain and reads the `phase` track of its episode trace: the
`drain.data` → `drain.metadata` → `drain.finish` (or the baselines'
`drain.metadata_flush`) span edges are exactly the cycles where the
machine's in-flight state changes shape. Crash points are the ±1-cycle
neighbourhood of every such boundary plus ~64 evenly spaced cycles
across `[0, planned]` (`--points N` to change; drop `--quick` for 256).
Each point is an independent task on the worker pool (`--jobs N`;
results are order-deterministic): prepare a dirty hierarchy, start the
drain, cut it at the sampled cycle with torn in-flight NVM writes
(`--model torn|stale|garbled`), recover from the truncated state, and
re-read every pre-crash dirty line. A typical matrix:

```
   scheme  points  recovered  detected  SILENT       loss window  best salvage
------------------------------------------------------------------------------
  Base-LU      70          2        68       0  cycles 0..149199             0
  Base-EU      70          2        66       2  cycles 0..165599             0
Horus-SLM      67          2        65       0   cycles 0..19799            63
Horus-DLM      67          2        65       0   cycles 0..21399            56
```

Three things to read off it. First, the **SILENT column is zero for
Horus at every sampled cycle** — the persistent drain-open register
means an interrupted episode is always announced; the command (and the
CI `crash-sweep` job, which runs it under all three torn-write models
and uploads each `crash-matrix-<model>.json` as an artifact) exits
nonzero otherwise. Second, Base-EU's silent points are real: cut its
drain before any line reaches NVM and reads come back as fresh memory
with recovery reporting success — the vulnerability window the paper
motivates Horus with. Third, **best salvage**: inside
the loss window Horus still restores a verified prefix of the vault
(63 of 64 lines at the best sampled cut above) where the baselines
restore nothing.

`bench-gate` (CI: `bench regression gate`) re-measures the smoke
plan's headline op counts against the committed `BENCH_smoke.json`
baseline with 2% tolerance — refresh it with
`cargo run --release -p horus-bench --bin bench-gate -- --update` when
a model change legitimately moves the numbers.

## Watching the fleet live — Prometheus scrape and run directory

Every `repro-*` binary and `horus-cli sweep`/`crash-sweep` can export
fleet telemetry while it runs (`horus-obs`; see ARCHITECTURE.md,
"Fleet observability"). Start the crash sweep with a metrics
endpoint and a run directory:

```
cargo run --release --bin horus-cli -- crash-sweep \
    --metrics-addr 127.0.0.1:9464 --run-dir crash-run
```

and scrape it mid-run from another terminal:

```
$ curl -s http://127.0.0.1:9464/metrics | grep -v '^#' | head
horus_crash_verdicts_total{scheme="Base-LU",verdict="detected"} 31
horus_crash_verdicts_total{scheme="Base-LU",verdict="recovered"} 2
horus_harness_cache_hits_total 0
horus_harness_jobs_completed_total 96
horus_harness_jobs_planned 274
horus_harness_jobs_started_total 98
horus_harness_queue_depth 2
horus_harness_worker_busy_seconds_total{worker="0"} 3.41
...
```

The endpoint speaks Prometheus/OpenMetrics text, so `curl | grep` is
already a usable live view and a real Prometheus needs no
configuration beyond the address. Queue depth and per-worker busy
seconds say whether the pool is starved; the per-scheme op totals and
live `*_per_second` gauges say what it is chewing through; and
`horus_crash_verdicts_total` above is the sweep's verdict matrix
accumulating scheme by scheme while it runs.

`--run-dir DIR` is where everything else a run produces goes. At exit
`DIR/summary.json` holds the final registry snapshot plus a per-job
host profile (wall vs CPU seconds, peak RSS; allocation totals too
when built with `--features horus-obs/alloc-profile`). While the run
goes, the harness appends one progress event per line to
`DIR/progress.ndjson` (jobs done/total, ETA, per-job cycles and
memory ops; `tail -f` it) and every structured-log record lands in
`DIR/logs.ndjson`; a sweep that stamps job spans writes
`DIR/spans.json`, and a `repro-*` binary adds the probed drain as
`DIR/drain-trace.json`. A file appears only when its signal was
produced. The summary's counters match the final scrape, and the
deterministic subset of the scrape — everything except host/timing
families — is byte-identical whatever `--jobs` was. Stdout is
byte-identical with and without either flag; with neither, no thread,
socket, or file is created.

In CI the `obs-smoke` job runs `horus-cli sweep --llc 8,16` with
`--metrics-addr` and `--run-dir`, curls the endpoint mid-run, asserts
the scrape is well-formed non-empty exposition text and the summary
matches the plan, and uploads the run directory as an artifact; the
`bench regression gate` diffs the `host_profile` section of
`BENCH_smoke.json` informationally (pass `--gate-host-profile` to
fail on >50% regressions).

## Distributing a sweep — one service plus two workers

`--jobs N` scales a sweep to one machine's cores; the experiment
service scales it to as many machines as will connect, with the merged
output still byte-identical to the local run (see ARCHITECTURE.md,
"Fleet"). Terminal 1, the service — it owns the job queue, the plan
journal, and the authoritative result cache; `--jobs 0` gives it no
local pool, so every job goes to a worker:

```
cargo run --release --bin horus-cli -- serve \
    --addr 127.0.0.1:9470 --jobs 0 --cache-dir fleet-cache
# serve: experiment API on http://127.0.0.1:9470/v1/jobs (2 runner(s), no local pool: remote workers only, tenants: anonymous)
```

Terminals 2 and 3, one worker each. A worker registers over HTTP,
leases job batches up to its pool width, executes them on the same
panic-isolated harness pool a local sweep uses, and pushes each
outcome (plus its host profile) back:

```
cargo run --release --bin horus-cli -- fleet-worker \
    --connect 127.0.0.1:9470 --jobs 2 --name worker-a
```

Terminal 4, the submitter — any harness caller with `--service`:

```
cargo run --release --bin horus-cli -- sweep --llc 8,16,32 --json \
    --service 127.0.0.1:9470
```

The submitter blocks until the service has merged the whole plan,
then renders exactly what the local command would have: `diff` the
output of `sweep --llc 8,16,32 --json --jobs 2` against the
distributed run and you get zero bytes of difference (the CI
`fleet-smoke` job does precisely this on every push). Re-submit the
same sweep and the service answers at once from the committed plan,
without any worker seeing a job. The same `--service` flag works on
every `repro-*` binary, so `repro-all --service ADDR` distributes the
paper's full figure set. Leave out `--jobs 0` and the service's own
runners execute alongside the workers, leasing from the same queue.
`curl -X POST http://127.0.0.1:9470/v1/shutdown` drains the service;
the workers hear it is done and exit.

Fault tolerance is the point of the lease machinery: kill a worker
mid-sweep (Ctrl-C it) and its leased jobs requeue once the lease
expires (30 s; `"lease_ms"` in the `--tenant-config` file), the
surviving worker finishes them, and the merged output is still
byte-identical. A live worker never trips this: it renews its batch
from a heartbeat thread while its pool is busy, so jobs longer than
the lease are safe and the lease only bounds how fast a *dead*
worker's jobs come back — `crates/service/tests/fleet_e2e.rs`
enforces exactly this scenario, plus a service restart: with a
`--cache-dir`, unfinished plans are journaled and the next `serve`
resumes them. The `horus_fleet_workers`,
`horus_fleet_leases_in_flight`, and `horus_fleet_requeues_total`
families on the service's `/metrics` make the whole lifecycle
visible on a Prometheus scrape.

## Tracing the fleet — job lifecycle spans and structured logs

The drain-episode probe above traces *inside* one simulated episode;
`horus-span` traces the *job around it* as it moves through the fleet:
queued → leased → executing → pushed → committed, one timeline across
every host (see ARCHITECTURE.md, "Fleet tracing & logging"). Run the
2-worker setup from the previous section, but give the service a run
directory:

```
cargo run --release --bin horus-cli -- serve \
    --addr 127.0.0.1:9470 --jobs 0 --cache-dir fleet-cache \
    --run-dir fleet-run
```

start the two workers, submit `sweep --llc 8,16 --json --service
127.0.0.1:9470` exactly as before, and `POST /v1/shutdown`: the
service writes `fleet-run/spans.json` as it exits.

`fleet-run/spans.json` is Chrome-trace JSON from the same writer as the
drain probe's export: drop it on [Perfetto](https://ui.perfetto.dev)
(or `chrome://tracing`) and each worker is a track, each job five
spans — queue wait, lease-to-execute gap, execution, push, commit.
Worker clocks are normalized to the service's clock from the
registration round trip, so cross-host spans line up on one timeline;
stamps are clamped per-job-monotonic at render. The same stage
durations feed `horus_fleet_job_stage_seconds{stage=...}` histograms
on the scrape and in `fleet-run/summary.json`, and
`GET /v1/jobs/{id}` derives each plan's stage
stamps from its jobs' spans.

The fleet's diagnostics are structured, too: every service and worker
event (registration, plan admission/resume, journal failures, drain)
goes through `horus_obs::log` — leveled, with typed fields, the last
1024 lines served as NDJSON at the listener's `/logs` route (liveness
at `/healthz`, readiness at `/readyz`):

```
$ curl -s http://127.0.0.1:9470/logs | head -2
{"ts_ms":…,"seq":0,"level":"info","target":"service","msg":"worker registered","fields":{"worker":"0","name":"worker-a","jobs":"2"}}
{"ts_ms":…,"seq":1,"level":"info","target":"service","msg":"submission admitted","fields":{"job":"0","tenant":"anonymous","key":"…","deduped":"false","trace_id":"…"}}
```

`--log-level debug|info|warn|error` sets the threshold; stderr gets a
human-readable mirror, and with `--run-dir` every accepted record is
also appended, in the ring's exact NDJSON form, to
`fleet-run/logs.ndjson`. Local sweeps trace the same way without any
service: `--run-dir` on any `repro-*` binary or `horus-cli sweep`
stamps the five stages on the local pool (workers named `local-N`)
and writes the same Perfetto timeline at exit. Spans are
observe-only: with the flags off, outputs
are byte-identical to a span-free build, and the stage histograms are
excluded from the deterministic scrape subset by name. The CI
`fleet-smoke` job runs this exact 2-worker recipe, asserts every
committed job carries all five stages monotonically, probes `/healthz`
and `/logs`, and uploads the run directory as an artifact.

## Benchmarking the simulator itself

The experiments above measure the *simulated machine*; the repository
benchmark measures the *simulator*. `crates/benchmark/run.sh` times four
paper-scale workloads end to end, and `crates/benchmark/run.sh --trace`
reports the per-layer numbers: AES pad and CMAC cost
(`crypto.otp_pad_ns`, `crypto.cmac64_ns`), NVM access cost
(`nvm.read_ns`, `nvm.write_ns`), event cost (`sim.event_ns`), drain time
(`core.drain_s`) and the time ledger. `crates/benchmark/README.md`
describes every workload and metric.

Two gates guard throughput on every push. The bench gate's `ops_per_sec`
section (measured by timing un-memoized smoke episodes, gated at 25%,
regressions only) catches sustained throughput drops; refresh it
together with the op-count baseline:

```
cargo run --release -p horus-bench --bin bench-gate -- --update
```

— the refreshed `BENCH_smoke.json` bakes in *your machine's* rate, so
expect the committed number to move whenever the baseline is refreshed
on different hardware; the 25% band plus regressions-only comparison
is what makes that safe. And `tests/perf_floor.rs` (release-only,
ignored in debug) asserts the simulator retires at least 2e8 simulated
cycles per wall second — roughly half the single-threaded release rate
after the AES-NI speedup, so it only trips on real regressions like an
accidental debug-profile bench job, a quadratic hot path, or losing
the hardware-AES dispatch.

When a change makes the simulator *legitimately faster* — a better
cipher kernel, allocation recycling — the committed
`ops_per_sec` baseline becomes stale on the low side. The gate only
fails on regressions, so nothing breaks, but the gate's 25% band is
now measured from a number the tree no longer produces, and a later
regression could hide inside the headroom. Re-baseline in the same PR
as the speedup:

1. `cargo run --release -p horus-bench --bin bench-gate -- --update`
   on a quiet machine.
2. Check the `BENCH_smoke.json` diff: **only** `wall_seconds`,
   `host_profile`, and `ops_per_sec` may move. If any scheme's op
   counts moved, the change was not a pure speedup — stop and debug.
3. Commit the refreshed baseline together with the optimization and
   state the measured before/after rates in the PR description, so the
   history explains why the number jumped.
4. If the speedup raises the sustainable floor, bump
   `SIM_CYCLES_PER_SEC_FLOOR` in `crates/bench/tests/perf_floor.rs`
   to roughly half the new single-threaded release rate and run
   `cargo test --release -p horus-bench --test perf_floor` to confirm
   the margin.

## Serving experiments — `horus-cli serve`, tenants, and `horus-load`

The fleet sections above spread *one* caller's sweep across machines;
the same `horus-cli serve` daemon is also shared: many callers — and
many *teams* — submit to it over HTTP (see ARCHITECTURE.md, "Service").
Write a tenant policy file first; budgets are token buckets (`burst`
capacity, `refill_per_sec` refill, `0` means unlimited) plus an
optional in-flight quota, and unknown callers land on the `fallback`
policy:

```
cat > tenants.json <<'JSON'
{
  "fallback": {"name": "anonymous", "burst": 4, "refill_per_sec": 0.5, "max_in_flight": 2},
  "tenants": [
    {"name": "team-a", "burst": 24, "refill_per_sec": 2.0, "max_in_flight": 0},
    {"name": "team-b", "burst": 12, "refill_per_sec": 1.0, "max_in_flight": 4}
  ],
  "runners": 2
}
JSON
cargo run --release --bin horus-cli -- serve --addr 127.0.0.1:9900 \
    --tenant-config tenants.json --jobs 4 --cache-dir service-cache
# serve: experiment API on http://127.0.0.1:9900/v1/jobs (2 runner(s), local pool 4, tenants: team-a, team-b, anonymous)
```

One listener serves everything: the `/v1` API, `/metrics`, `/healthz`,
`/readyz`, `/logs`. Submit a plan (here: the quick sweep point the
load generator calls plan 0) and poll it:

```
curl -s -X POST -H 'x-horus-tenant: team-a' \
    -d '{"plan":[...JobSpec JSON...]}' http://127.0.0.1:9900/v1/jobs
# {"job":0,"key":"af93b1ccb763400a","tenant":"team-a","deduped":false,"trace":"2fa58dc62cb3c5e4"}
curl -s http://127.0.0.1:9900/v1/jobs/0            # stage-by-stage status
curl -s http://127.0.0.1:9900/v1/jobs/0/result     # outcome JSON once committed
curl -s http://127.0.0.1:9900/v1/tenants/team-a    # budget + counters snapshot
```

Submit the same plan twice — from *different* tenants, even — and the
second answer says `"deduped":true` with an alias id riding the first
execution; restart the daemon with the same `--cache-dir` and
re-submission commits from the on-disk cache without re-executing
(`executed=0 cache_hits=1` in the serve log). Over-budget submissions
get `429` with a `Retry-After` derived from the actual refill deficit,
and a draining daemon (`POST /v1/shutdown`) answers `503`.

Every harness caller can route *through* the daemon instead of its own
pool:

```
cargo run --release --bin horus-cli -- sweep --llc 8,16 --json \
    --service 127.0.0.1:9900 --service-tenant team-a
```

and the output is byte-identical to the local `--jobs N` run.

`horus-load` is the proof under contention. It storms the daemon with
N client threads over a weighted tenant ring and a deterministic plan
mix, fetches every distinct plan's result, optionally re-executes them
locally and diffs (`--verify-local`), checks fixed budgets shed
exactly `submitted − burst` (`--expect-exact-shed`, valid when
`refill_per_sec` is 0), and writes latency percentiles as JSON:

```
cargo run --release -p horus-service --bin horus-load -- \
    --addr 127.0.0.1:9900 --clients 36 --requests 2 --quick-pct 100 \
    --tenants team-a,team-b,team-c --weights 2,1,1 \
    --tenant-config tenants.json --expect-exact-shed \
    --verify-local --verify-jobs 2 --verify-cache-dir service-cache \
    --report load-report.json
# submitted 72 admitted 42 shed 30 deduped 32 distinct 10 verified 10 p50 7.9ms p99 19.6ms
```

The CI `service-soak` job runs exactly this storm against three
fixed-budget tenants on every push and cross-checks three views of it
— the load report, the live `/metrics` scrape, and the end-of-run obs
summary — asserting admitted + shed equals submitted per tenant, the
shed counts match the overflow arithmetic exactly, and every admitted
result is byte-identical to local execution. One caveat worth knowing
when reading its numbers: *which* submissions get admitted is
timing-dependent (the storm races 36 threads against fixed pools), so
the job asserts `plans_completed == distinct_plans` from the report
rather than a hard-coded plan count.

## Following one request — trace ids and `horus-cli insight`

Every admitted submission gets a correlation trace id at admission —
in the `202` body's `trace` field, in the `x-horus-trace` response
header, and on every signal that request's work touches: the
`submission admitted` / `plan committed` log lines, the `SpanBook`
stage stamps, the per-job profile in the obs summary, and (when
remote workers execute) every lease, worker log line, and pushed
profile. Deduplicated submissions *reuse* the canonical plan's trace
— an alias never executes, so a fresh id would join to nothing.

Run a serve session with a run directory, which collects all three
artifacts (`summary.json`, `spans.json`, `logs.ndjson`), storm it,
then join them offline:

```
cargo run --release --bin horus-cli -- serve --addr 127.0.0.1:9900 \
    --tenant-config tenants.json --jobs 4 --run-dir service-run &
cargo run --release -p horus-service --bin horus-load -- \
    --addr 127.0.0.1:9900 --clients 36 --requests 2 \
    --tenants team-a,team-b,team-c --report load-report.json
curl -s -X POST http://127.0.0.1:9900/v1/shutdown
cargo run --release --bin horus-cli -- insight service-run \
    --out insight.json --top 5
```

The report breaks latency down by stage (`queued → leased → executing
→ pushed → committed`) per tenant and per scheme, lists the top-N
slowest end-to-end requests with their trace ids, reconciles the
shed/admit counts seen in logs against the governor counters, and
flags anomalies: stage times far off their scheme's typical value, and
orphan spans or log lines whose trace id no other signal knows (a
joined run has zero). `load-report.json` carries the `traces` the
service returned, so scripts can assert the same ids appear in
`insight.json` — the CI `service-soak` lane does exactly that.

Two interactive variants of the same join, no analyzer needed: the
ring buffer filters server-side
(`curl 'http://127.0.0.1:9900/logs?trace_id=2fa58dc62cb3c5e4'`), and
the `/metrics` scrape attaches trace ids to the latency buckets they
landed in as OpenMetrics exemplars
(`horus_http_request_seconds_bucket{route="/v1/jobs",le="0.016384"} 7 # {trace_id="2fa58dc62cb3c5e4"} 0.0079`)
— so a latency spike on a dashboard hands you a concrete request to
paste into `/logs?trace_id=` or grep in the span timeline.
"#;

#[cfg(test)]
mod tests {
    use super::EPILOGUE;

    #[test]
    fn committed_experiments_md_ends_with_the_epilogue() {
        // Every hand-written section of the committed document must live
        // in EPILOGUE, or the next `repro-all` regeneration deletes it.
        let committed = include_str!("../../../EXPERIMENTS.md");
        assert!(
            committed.ends_with(EPILOGUE),
            "EXPERIMENTS.md has hand-written text after (or inside) the \
             generated part that repro_all::EPILOGUE does not carry"
        );
    }
}
