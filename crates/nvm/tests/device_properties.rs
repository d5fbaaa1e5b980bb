//! Differential properties for the NVM front end: `NvmSystem` (device
//! pages, per-block wear, crash journal) against a `BTreeMap` model.

use horus_nvm::{Block, NvmConfig, NvmSystem, TornWriteModel, WearTracker};
use horus_sim::rng::{check, default_cases, Rng};
use horus_sim::{Completion, Cycles, PowerFailure, WriteFate};
use std::collections::BTreeMap;

/// Blocks in the exercised window: six 1 KiB device pages.
const WINDOW_BLOCKS: u64 = 96;

/// One journaled timed write: `(addr, pre-image, data, completion)`.
type Journaled = (u64, Option<Block>, Block, Completion);

/// The reference model: what every query should answer.
#[derive(Default)]
struct Model {
    contents: BTreeMap<u64, Block>,
    wear: BTreeMap<u64, u64>,
    journal: Option<Vec<Journaled>>,
}

struct Case {
    nvm: NvmSystem,
    model: Model,
    /// Block-aligned base of the window; not page-aligned in general,
    /// so runs of blocks straddle page boundaries at varying offsets.
    base: u64,
}

impl Case {
    fn addr(&self, rng: &mut Rng) -> u64 {
        self.base + rng.below(WINDOW_BLOCKS) * 64
    }

    fn step(&mut self, rng: &mut Rng) {
        match rng.below(100) {
            0..=39 => {
                let addr = self.addr(rng);
                let data: Block = rng.bytes();
                let kind = if rng.chance(0.5) { "data" } else { "tree" };
                let c = self.nvm.write(addr, data, kind, Cycles(rng.below(20_000)));
                let pre = self.model.contents.insert(addr, data);
                *self.model.wear.entry(addr).or_insert(0) += 1;
                if let Some(j) = &mut self.model.journal {
                    j.push((addr, pre, data, c));
                }
            }
            40..=49 => {
                // Attacker / test-setup writes: contents only, no wear.
                let addr = self.addr(rng);
                let data: Block = rng.bytes();
                self.nvm.device_mut().write_block(addr, data);
                self.model.contents.insert(addr, data);
            }
            50..=69 => {
                // A run of timed reads across at least one page boundary.
                let start = self.addr(rng);
                for i in 0..rng.range(1..40) {
                    let addr = start + i * 64;
                    let want = self.model.contents.get(&addr).copied();
                    if rng.chance(0.5) {
                        let (got, _) = self.nvm.read_written(addr, "tree", Cycles(0));
                        assert_eq!(got, want, "read_written {addr:#x}");
                    } else {
                        let (got, _) = self.nvm.read(addr, "data", Cycles(0));
                        assert_eq!(got, want.unwrap_or([0; 64]), "read {addr:#x}");
                    }
                }
            }
            70..=77 => {
                let start = self.addr(rng);
                let n = rng.range(1..24);
                self.nvm.device_mut().erase_range(start, n);
                for i in 0..n {
                    self.model.contents.remove(&(start + i * 64));
                }
            }
            78..=87 => {
                self.nvm.arm_crash_journal();
                self.model.journal = Some(Vec::new());
            }
            88..=95 => {
                if self.nvm.crash_journal_armed() {
                    self.fire(rng);
                }
            }
            96..=97 => {
                self.nvm.reset_wear();
                self.model.wear.clear();
            }
            _ => self.nvm.reset_timing(),
        }
    }

    /// Cuts power at a random cycle and mirrors the rewind in the model.
    fn fire(&mut self, rng: &mut Rng) {
        let failure = PowerFailure::at(Cycles(rng.below(self.nvm.busy_until().0 + 2)));
        let torn_model = match rng.below(3) {
            0 => TornWriteModel::Torn,
            1 => TornWriteModel::Stale,
            _ => TornWriteModel::Garbled,
        };
        let outcome = self.nvm.fire_crash(failure, torn_model);
        let journal = self.model.journal.take().expect("armed with the system");
        let (mut durable, mut lost_addrs, mut torn_addrs) = (0, Vec::new(), Vec::new());
        // Torn blocks whose garbling the model cannot predict: checked
        // against their images once the walk has settled each address.
        let mut torn = BTreeMap::new();
        for (addr, pre, data, c) in journal.into_iter().rev() {
            match failure.fate_of(&c) {
                WriteFate::Durable => durable += 1,
                WriteFate::Lost => {
                    match pre {
                        Some(b) => self.model.contents.insert(addr, b),
                        None => self.model.contents.remove(&addr),
                    };
                    torn.remove(&addr);
                    lost_addrs.push(addr);
                }
                WriteFate::Torn { .. } => {
                    torn.insert(addr, (pre.unwrap_or([0; 64]), data));
                    torn_addrs.push(addr);
                }
            }
        }
        for (addr, (pre, data)) in torn {
            let got = self
                .nvm
                .device()
                .read_written(addr)
                .expect("torn is written");
            if torn_model == TornWriteModel::Stale {
                assert_eq!(got, pre, "stale tear keeps the pre-image");
            } else {
                assert!(got != pre && got != data, "tear differs from both images");
            }
            self.model.contents.insert(addr, got);
        }
        assert_eq!(outcome.durable, durable);
        assert_eq!(outcome.lost_addrs, lost_addrs);
        assert_eq!(outcome.torn_addrs, torn_addrs);
    }

    fn verify(&self, rng: &mut Rng) {
        let dev = self.nvm.device();
        for b in 0..WINDOW_BLOCKS {
            let addr = self.base + b * 64;
            let want = self.model.contents.get(&addr).copied();
            assert_eq!(dev.read_written(addr), want, "contents {addr:#x}");
            assert_eq!(dev.read_block(addr), want.unwrap_or([0; 64]));
            assert_eq!(dev.is_written(addr), want.is_some());
        }
        assert_eq!(dev.written_blocks(), self.model.contents.len());
        let addrs: Vec<u64> = self.model.contents.keys().copied().collect();
        assert_eq!(dev.written_addrs_sorted(), addrs);
        self.verify_wear(&self.nvm.wear(), rng);
    }

    fn verify_wear(&self, wear: &WearTracker, rng: &mut Rng) {
        let model = &self.model.wear;
        let total: u64 = model.values().sum();
        assert_eq!(wear.total_writes(), total);
        assert_eq!(wear.blocks_touched(), model.len() as u64);
        assert_eq!(wear.max_wear(), model.values().copied().max().unwrap_or(0));
        let mean = if model.is_empty() {
            0.0
        } else {
            total as f64 / model.len() as f64
        };
        assert_eq!(wear.mean_wear(), mean);
        for b in 0..WINDOW_BLOCKS {
            let addr = self.base + b * 64;
            assert_eq!(wear.wear_of(addr), model.get(&addr).copied().unwrap_or(0));
        }
        let mut hot: Vec<(u64, u64)> = model.iter().map(|(a, c)| (*a, *c)).collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let n = rng.below(12) as usize;
        hot.truncate(n);
        assert_eq!(wear.hottest(n), hot);
        let mut h = horus_sim::Histogram::new();
        model.values().for_each(|c| h.record(*c));
        assert_eq!(wear.histogram(), h);
        let start = self.base.saturating_sub(4 * 64) + rng.below(WINDOW_BLOCKS + 8) * 64;
        let blocks = rng.below(40);
        let end = start + blocks * 64;
        let in_range: u64 = model.range(start..end).map(|(_, c)| c).sum();
        assert_eq!(wear.writes_in_range(start, blocks), in_range);
    }
}

/// Every query on the device and its wear matches the model after any
/// interleaving of timed writes, device writes, erases, crash rewinds
/// and wear resets.
#[test]
fn nvm_system_matches_a_map_model() {
    check("nvm_system_matches_a_map_model", default_cases(), |rng| {
        let base = if rng.chance(0.5) {
            rng.below(64) * 64
        } else {
            (1 << 34) + rng.below(1 << 20) * 64
        };
        let mut case = Case {
            nvm: NvmSystem::new(NvmConfig::paper_default()),
            model: Model::default(),
            base,
        };
        for _ in 0..rng.range(1..120) {
            case.step(rng);
            if rng.chance(0.1) {
                case.verify(rng);
            }
        }
        case.verify(rng);
    });
}

/// Request kinds are counted by text: a kind literal at a different
/// address with the same text bumps the same counter.
#[test]
fn equal_kind_text_bumps_one_counter() {
    let mut nvm = NvmSystem::new(NvmConfig::paper_default());
    let copy: &'static str = Box::leak(String::from("data").into_boxed_str());
    assert!(!std::ptr::eq(copy, "data"));
    nvm.write(0, [1; 64], "data", Cycles(0));
    nvm.write(64, [2; 64], copy, Cycles(0));
    let _ = nvm.read(0, copy, Cycles(0));
    let _ = nvm.read_written(64, "data", Cycles(0));
    assert_eq!(nvm.stats().get("mem.write.data"), 2);
    assert_eq!(nvm.stats().get("mem.read.data"), 2);
    assert_eq!(nvm.stats().len(), 2);
}
