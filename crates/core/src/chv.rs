//! The cache hierarchy vault: layout, drain-time writer, recovery reader
//! (paper §IV-C).
//!
//! The CHV is a reserved NVM region the drain engine *streams* into. For
//! every 8 drained blocks it appends one address block (the 8 original
//! 64-bit addresses, coalesced in the address register); MAC storage
//! granularity depends on the scheme:
//!
//! * **Horus-SLM** (single-level MAC): one MAC block (8 x 8-byte MACs)
//!   per 8 drained blocks;
//! * **Horus-DLM** (double-level MAC): per 8 drained blocks, the 8 MACs
//!   in the first register are hashed into one second-level MAC; a MAC
//!   block of 8 second-level MACs is written per 64 drained blocks
//!   (Figure 10), cutting MAC writes 8x for 12.5% more MAC computations.
//!
//! Each drained block is encrypted with a one-time pad seeded by its CHV
//! slot address and its **drain-counter** value, and MAC'ed over
//! `ciphertext || original address || DC` — so tampering, splicing,
//! replay and truncation all break verification (§IV-C.4).

use horus_crypto::{otp, Aes128, Cmac, Mac64};
use horus_metadata::Platform;
use horus_nvm::Block;
use horus_sim::Cycles;
use serde::{Deserialize, Serialize};

/// MAC storage granularity: the difference between Horus-SLM and
/// Horus-DLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MacGranularity {
    /// One stored MAC per drained block (MAC block per 8 blocks).
    SingleLevel,
    /// One stored second-level MAC per 8 drained blocks (MAC block per
    /// 64 blocks).
    DoubleLevel,
}

/// Deterministic placement of data / address / MAC blocks in the CHV.
///
/// SLM groups occupy 10 blocks: 8 data, 1 address, 1 MAC. DLM supergroups
/// occupy 73: 8 x (8 data + 1 address) + 1 MAC.
///
/// ```
/// use horus_core::{ChvLayout, MacGranularity};
/// let l = ChvLayout::new(0x1000, MacGranularity::SingleLevel);
/// assert_eq!(l.data_addr(0), 0x1000);
/// assert_eq!(l.addr_block_addr(0), 0x1000 + 8 * 64);
/// assert_eq!(l.mac_block_addr(0), 0x1000 + 9 * 64);
/// assert_eq!(l.data_addr(8), 0x1000 + 10 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChvLayout {
    base: u64,
    mode: MacGranularity,
}

impl ChvLayout {
    /// Creates a layout rooted at `base` (the CHV region base).
    #[must_use]
    pub fn new(base: u64, mode: MacGranularity) -> Self {
        Self { base, mode }
    }

    /// The MAC granularity.
    #[must_use]
    pub fn mode(&self) -> MacGranularity {
        self.mode
    }

    fn block_at(&self, offset_blocks: u64) -> u64 {
        self.base + offset_blocks * 64
    }

    /// Physical address of the `i`-th drained block's ciphertext.
    #[must_use]
    pub fn data_addr(&self, i: u64) -> u64 {
        match self.mode {
            MacGranularity::SingleLevel => self.block_at((i / 8) * 10 + i % 8),
            MacGranularity::DoubleLevel => {
                let (sg, d) = (i / 64, i % 64);
                self.block_at(sg * 73 + (d / 8) * 9 + d % 8)
            }
        }
    }

    /// Physical address of the address block covering drained block `i`.
    #[must_use]
    pub fn addr_block_addr(&self, i: u64) -> u64 {
        match self.mode {
            MacGranularity::SingleLevel => self.block_at((i / 8) * 10 + 8),
            MacGranularity::DoubleLevel => {
                let (sg, d) = (i / 64, i % 64);
                self.block_at(sg * 73 + (d / 8) * 9 + 8)
            }
        }
    }

    /// The slot of drained block `i` within its address block.
    #[must_use]
    pub fn addr_slot(&self, i: u64) -> usize {
        (i % 8) as usize
    }

    /// Physical address of the MAC block covering drained block `i`.
    #[must_use]
    pub fn mac_block_addr(&self, i: u64) -> u64 {
        match self.mode {
            MacGranularity::SingleLevel => self.block_at((i / 8) * 10 + 9),
            MacGranularity::DoubleLevel => self.block_at((i / 64) * 73 + 72),
        }
    }

    /// The slot within the MAC block: the block's own MAC (SLM) or its
    /// group's second-level MAC (DLM).
    #[must_use]
    pub fn mac_slot(&self, i: u64) -> usize {
        match self.mode {
            MacGranularity::SingleLevel => (i % 8) as usize,
            MacGranularity::DoubleLevel => ((i / 8) % 8) as usize,
        }
    }

    /// Total CHV blocks consumed by an episode of `n` drained blocks
    /// (including partially-filled address/MAC blocks).
    #[must_use]
    pub fn blocks_used(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let addr_blocks = n.div_ceil(8);
        let mac_blocks = match self.mode {
            MacGranularity::SingleLevel => n.div_ceil(8),
            MacGranularity::DoubleLevel => n.div_ceil(64),
        };
        n + addr_blocks + mac_blocks
    }
}

/// The MAC input binding a CHV entry: ciphertext, original address, and
/// the drain-counter value used to encrypt it.
#[must_use]
pub fn entry_mac_input(ciphertext: &Block, orig_addr: u64, dc: u64) -> [u8; 80] {
    let mut msg = [0u8; 80];
    msg[..64].copy_from_slice(ciphertext);
    msg[64..72].copy_from_slice(&orig_addr.to_le_bytes());
    msg[72..80].copy_from_slice(&dc.to_le_bytes());
    msg
}

/// The streaming CHV writer used by the Horus drain engines: owns the
/// coalescing registers (address register, MAC register, and the DLM
/// second-level register).
#[derive(Debug, Clone)]
pub struct ChvWriter {
    layout: ChvLayout,
    aes: Aes128,
    cmac: Cmac,
    count: u64,
    addr_buf: [u64; 8],
    addr_n: usize,
    mac_buf: [Mac64; 8],
    mac_n: usize,
    l2_buf: [Mac64; 8],
    l2_n: usize,
}

fn macs_to_block(macs: &[Mac64; 8], n: usize) -> Block {
    let mut out = [0u8; 64];
    for (i, m) in macs.iter().take(n).enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&m.0);
    }
    out
}

fn addrs_to_block(addrs: &[u64; 8], n: usize) -> Block {
    let mut out = [0u8; 64];
    for (i, a) in addrs.iter().take(n).enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&a.to_le_bytes());
    }
    out
}

impl ChvWriter {
    /// Creates a writer with empty registers.
    #[must_use]
    pub fn new(layout: ChvLayout, chv_key: &[u8; 16], chv_mac_key: &[u8; 16]) -> Self {
        Self {
            layout,
            aes: Aes128::new(chv_key),
            cmac: Cmac::new(chv_mac_key),
            count: 0,
            addr_buf: [0; 8],
            addr_n: 0,
            mac_buf: [Mac64::ZERO; 8],
            mac_n: 0,
            l2_buf: [Mac64::ZERO; 8],
            l2_n: 0,
        }
    }

    /// Number of blocks pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Streams one drained block into the CHV: encrypt with the given
    /// drain-counter value, MAC, coalesce, and write whatever registers
    /// filled up. `kind` attributes the data write (`"chv_data"` for
    /// hierarchy blocks, `"chv_meta"` for drained metadata blocks).
    pub fn push(
        &mut self,
        p: &mut Platform,
        dc: u64,
        orig_addr: u64,
        plaintext: &Block,
        kind: &'static str,
        ready: Cycles,
    ) -> Cycles {
        let i = self.count;
        let slot_addr = self.layout.data_addr(i);
        // Encrypt: OTP seeded by (CHV slot, DC) — unique per §IV-C.1.
        let enc = p.otp_op("chv", ready);
        let ct = otp::encrypt_block_ctr(&self.aes, slot_addr, dc, plaintext);
        let wc = p.nvm.write(slot_addr, ct, kind, enc.done);
        let mut t = wc.start; // stream: next op can issue once accepted

        // MAC over (ciphertext, original address, DC).
        let mc = p.mac_op("chv_entry", enc.done);
        t = t.max(mc.done);
        let mac = self.cmac.mac64(&entry_mac_input(&ct, orig_addr, dc));

        // Address register.
        self.addr_buf[self.addr_n] = orig_addr;
        self.addr_n += 1;
        if self.addr_n == 8 {
            let block = addrs_to_block(&self.addr_buf, 8);
            let c = p
                .nvm
                .write(self.layout.addr_block_addr(i), block, "chv_addr", t);
            t = t.max(c.start);
            self.addr_n = 0;
        }

        // MAC register(s).
        self.mac_buf[self.mac_n] = mac;
        self.mac_n += 1;
        if self.mac_n == 8 {
            let block = macs_to_block(&self.mac_buf, 8);
            match self.layout.mode() {
                MacGranularity::SingleLevel => {
                    let c = p
                        .nvm
                        .write(self.layout.mac_block_addr(i), block, "chv_mac", t);
                    t = t.max(c.start);
                }
                MacGranularity::DoubleLevel => {
                    let mc2 = p.mac_op("chv_l2", t);
                    t = t.max(mc2.done);
                    self.l2_buf[self.l2_n] = self.cmac.mac64(&block);
                    self.l2_n += 1;
                    if self.l2_n == 8 {
                        let l2 = macs_to_block(&self.l2_buf, 8);
                        let c = p.nvm.write(self.layout.mac_block_addr(i), l2, "chv_mac", t);
                        t = t.max(c.start);
                        self.l2_n = 0;
                    }
                }
            }
            self.mac_n = 0;
        }

        self.count += 1;
        t
    }

    /// Flushes partially-filled registers at the end of the episode.
    pub fn finish(&mut self, p: &mut Platform, ready: Cycles) -> Cycles {
        let mut t = ready;
        if self.count == 0 {
            return t;
        }
        let last = self.count - 1;
        if self.addr_n > 0 {
            let block = addrs_to_block(&self.addr_buf, self.addr_n);
            let c = p
                .nvm
                .write(self.layout.addr_block_addr(last), block, "chv_addr", t);
            t = t.max(c.start);
            self.addr_n = 0;
        }
        match self.layout.mode() {
            MacGranularity::SingleLevel => {
                if self.mac_n > 0 {
                    let block = macs_to_block(&self.mac_buf, self.mac_n);
                    let c = p
                        .nvm
                        .write(self.layout.mac_block_addr(last), block, "chv_mac", t);
                    t = t.max(c.start);
                    self.mac_n = 0;
                }
            }
            MacGranularity::DoubleLevel => {
                if self.mac_n > 0 {
                    let block = macs_to_block(&self.mac_buf, self.mac_n);
                    let mc2 = p.mac_op("chv_l2", t);
                    t = t.max(mc2.done);
                    self.l2_buf[self.l2_n] = self.cmac.mac64(&block);
                    self.l2_n += 1;
                    self.mac_n = 0;
                }
                if self.l2_n > 0 {
                    let l2 = macs_to_block(&self.l2_buf, self.l2_n);
                    let c = p
                        .nvm
                        .write(self.layout.mac_block_addr(last), l2, "chv_mac", t);
                    t = t.max(c.start);
                    self.l2_n = 0;
                }
            }
        }
        t.max(p.busy_until())
    }
}

/// Functional read-back of a CHV episode (the recovery path and the
/// attack tests use this).
#[derive(Debug, Clone)]
pub struct ChvReader {
    layout: ChvLayout,
    aes: Aes128,
    cmac: Cmac,
}

/// A verified, decrypted CHV entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChvEntry {
    /// The block's original (pre-drain) physical address.
    pub orig_addr: u64,
    /// The decrypted contents.
    pub data: Block,
}

impl ChvReader {
    /// Creates a reader with the episode's keys.
    #[must_use]
    pub fn new(layout: ChvLayout, chv_key: &[u8; 16], chv_mac_key: &[u8; 16]) -> Self {
        Self {
            layout,
            aes: Aes128::new(chv_key),
            cmac: Cmac::new(chv_mac_key),
        }
    }

    /// The layout being read.
    #[must_use]
    pub fn layout(&self) -> &ChvLayout {
        &self.layout
    }

    /// Reads and verifies entry `i` (drain-counter value `dc`), issuing
    /// timed reads chained after `ready`. Returns the entry and the read
    /// completion time, or `None` if verification failed.
    ///
    /// DLM note: second-level MACs cover groups of 8, so DLM verification
    /// goes through [`read_group_dlm`](Self::read_group_dlm); this
    /// method performs SLM verification only.
    ///
    /// # Panics
    ///
    /// Panics if called on a double-level layout.
    pub fn read_entry_slm(
        &self,
        p: &mut Platform,
        i: u64,
        dc: u64,
        ready: Cycles,
    ) -> (Option<ChvEntry>, Cycles) {
        assert_eq!(
            self.layout.mode(),
            MacGranularity::SingleLevel,
            "SLM entry read on DLM layout"
        );
        let (ct, c1) = p.nvm.read(self.layout.data_addr(i), "chv_data", ready);
        let (ablk, c2) = p
            .nvm
            .read(self.layout.addr_block_addr(i), "chv_addr", c1.done);
        let (mblk, c3) = p
            .nvm
            .read(self.layout.mac_block_addr(i), "chv_mac", c2.done);
        let mut t = c3.done;
        let orig_addr = read_u64(&ablk, self.layout.addr_slot(i));
        let stored = Mac64(read8(&mblk, self.layout.mac_slot(i)));
        let vc = p.mac_op("chv_verify", t);
        t = vc.done;
        let mac = self.cmac.mac64(&entry_mac_input(&ct, orig_addr, dc));
        if mac != stored {
            return (None, t);
        }
        let dec = p.otp_op("chv", t);
        t = dec.done;
        let data = otp::decrypt_block_ctr(&self.aes, self.layout.data_addr(i), dc, &ct);
        (Some(ChvEntry { orig_addr, data }), t)
    }

    /// Reads and verifies one SLM group of up to 8 entries starting at
    /// entry `base_i` — the address and MAC blocks are read once and
    /// shared by the group, as the recovery walk does. Returns `None` if
    /// any member fails verification.
    ///
    /// # Panics
    ///
    /// Panics if called on a double-level layout, if `base_i` is not
    /// 8-aligned, or if `len` is outside `1..=8`.
    pub fn read_group_slm(
        &self,
        p: &mut Platform,
        base_i: u64,
        len: usize,
        dc_of: impl Fn(u64) -> u64,
        ready: Cycles,
    ) -> (Option<Vec<ChvEntry>>, Cycles) {
        assert_eq!(
            self.layout.mode(),
            MacGranularity::SingleLevel,
            "SLM group read on DLM layout"
        );
        assert_eq!(base_i % 8, 0, "SLM groups are 8-aligned");
        assert!((1..=8).contains(&len), "group length out of range");
        let mut t = ready;
        let mut cts = Vec::with_capacity(len);
        for k in 0..len as u64 {
            let (ct, c) = p.nvm.read(self.layout.data_addr(base_i + k), "chv_data", t);
            t = c.done;
            cts.push(ct);
        }
        let (ablk, ca) = p
            .nvm
            .read(self.layout.addr_block_addr(base_i), "chv_addr", t);
        let (mblk, cm) = p
            .nvm
            .read(self.layout.mac_block_addr(base_i), "chv_mac", ca.done);
        t = cm.done;
        let mut out = Vec::with_capacity(len);
        for (k, ct) in cts.iter().enumerate() {
            let i = base_i + k as u64;
            let orig_addr = read_u64(&ablk, self.layout.addr_slot(i));
            let dc = dc_of(i);
            let stored = Mac64(read8(&mblk, self.layout.mac_slot(i)));
            let vc = p.mac_op("chv_verify", t);
            t = vc.done;
            if self.cmac.mac64(&entry_mac_input(ct, orig_addr, dc)) != stored {
                return (None, t);
            }
            let dec = p.otp_op("chv", t);
            t = dec.done;
            let data = otp::decrypt_block_ctr(&self.aes, self.layout.data_addr(i), dc, ct);
            out.push(ChvEntry { orig_addr, data });
        }
        (Some(out), t)
    }

    /// Reads and verifies one DLM group of up to 8 entries starting at
    /// entry `base_i` (whose drain-counter values are `dc_of(pos)`).
    /// Returns the verified entries, or `None` if the group's
    /// second-level MAC did not match.
    ///
    /// A DLM MAC block covers 64 entries (8 groups), so a sequential
    /// recovery walk reads it once per supergroup, keeps it in a
    /// register and passes it as `preloaded_mac_block`; with `None` the
    /// group reads its MAC block itself.
    ///
    /// # Panics
    ///
    /// Panics if called on a single-level layout, if `base_i` is not
    /// 8-aligned, or if `len` is outside `1..=8`.
    pub fn read_group_dlm(
        &self,
        p: &mut Platform,
        base_i: u64,
        len: usize,
        dc_of: impl Fn(u64) -> u64,
        preloaded_mac_block: Option<Block>,
        ready: Cycles,
    ) -> (Option<Vec<ChvEntry>>, Cycles) {
        assert_eq!(
            self.layout.mode(),
            MacGranularity::DoubleLevel,
            "DLM group read on SLM layout"
        );
        assert_eq!(base_i % 8, 0, "DLM groups are 8-aligned");
        assert!((1..=8).contains(&len), "group length out of range");
        let mut t = ready;
        let mut cts = Vec::with_capacity(len);
        for k in 0..len as u64 {
            let (ct, c) = p.nvm.read(self.layout.data_addr(base_i + k), "chv_data", t);
            t = c.done;
            cts.push(ct);
        }
        let (ablk, ca) = p
            .nvm
            .read(self.layout.addr_block_addr(base_i), "chv_addr", t);
        t = ca.done;
        let mblk = match preloaded_mac_block {
            Some(b) => b,
            None => {
                let (b, cm) = p.nvm.read(self.layout.mac_block_addr(base_i), "chv_mac", t);
                t = cm.done;
                b
            }
        };
        // Recompute the up-to-8 first-level MACs, then the second-level
        // MAC.
        let mut l1 = [Mac64::ZERO; 8];
        let mut entries = Vec::with_capacity(len);
        for (k, ct) in cts.iter().enumerate() {
            let i = base_i + k as u64;
            let orig_addr = read_u64(&ablk, self.layout.addr_slot(i));
            let dc = dc_of(i);
            let vc = p.mac_op("chv_verify", t);
            t = vc.done;
            l1[k] = self.cmac.mac64(&entry_mac_input(ct, orig_addr, dc));
            entries.push((orig_addr, dc, *ct));
        }
        let vc = p.mac_op("chv_l2", t);
        t = vc.done;
        let l2 = self.cmac.mac64(&macs_to_block(&l1, len));
        let stored = Mac64(read8(&mblk, self.layout.mac_slot(base_i)));
        if l2 != stored {
            return (None, t);
        }
        let out = entries
            .into_iter()
            .enumerate()
            .map(|(k, (orig_addr, dc, ct))| {
                let dec = p.otp_op("chv", t);
                t = dec.done;
                let data = otp::decrypt_block_ctr(
                    &self.aes,
                    self.layout.data_addr(base_i + k as u64),
                    dc,
                    &ct,
                );
                ChvEntry { orig_addr, data }
            })
            .collect();
        (Some(out), t)
    }
}

fn read8(block: &Block, slot: usize) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(&block[slot * 8..(slot + 1) * 8]);
    out
}

fn read_u64(block: &Block, slot: usize) -> u64 {
    u64::from_le_bytes(read8(block, slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_metadata::Platform;

    const K1: [u8; 16] = [0x31; 16];
    const K2: [u8; 16] = [0x32; 16];

    #[test]
    fn slm_layout_math() {
        let l = ChvLayout::new(0, MacGranularity::SingleLevel);
        assert_eq!(l.data_addr(7), 7 * 64);
        assert_eq!(l.data_addr(8), 10 * 64);
        assert_eq!(l.addr_block_addr(15), (10 + 8) * 64);
        assert_eq!(l.mac_block_addr(15), (10 + 9) * 64);
        assert_eq!(l.addr_slot(13), 5);
        assert_eq!(l.mac_slot(13), 5);
        assert_eq!(l.blocks_used(16), 16 + 2 + 2);
        assert_eq!(l.blocks_used(9), 9 + 2 + 2);
        assert_eq!(l.blocks_used(0), 0);
    }

    #[test]
    fn dlm_layout_math() {
        let l = ChvLayout::new(0, MacGranularity::DoubleLevel);
        assert_eq!(l.data_addr(0), 0);
        assert_eq!(l.data_addr(8), 9 * 64); // second sub-group
        assert_eq!(l.addr_block_addr(0), 8 * 64);
        assert_eq!(l.addr_block_addr(8), 17 * 64);
        assert_eq!(l.mac_block_addr(0), 72 * 64);
        assert_eq!(l.mac_block_addr(63), 72 * 64);
        assert_eq!(l.data_addr(64), 73 * 64);
        assert_eq!(l.mac_slot(0), 0);
        assert_eq!(l.mac_slot(8), 1);
        assert_eq!(l.mac_slot(63), 7);
        assert_eq!(l.blocks_used(64), 64 + 8 + 1);
        assert_eq!(l.blocks_used(65), 65 + 9 + 2);
    }

    #[test]
    fn layouts_never_overlap() {
        for mode in [MacGranularity::SingleLevel, MacGranularity::DoubleLevel] {
            let l = ChvLayout::new(0, mode);
            let mut seen = std::collections::HashSet::new();
            for i in 0..200u64 {
                assert!(seen.insert(l.data_addr(i)), "data {i} overlaps");
            }
            for i in (0..200u64).step_by(8) {
                assert!(seen.insert(l.addr_block_addr(i)), "addr block {i} overlaps");
            }
            let mac_step = if mode == MacGranularity::SingleLevel {
                8
            } else {
                64
            };
            for i in (0..200u64).step_by(mac_step) {
                assert!(seen.insert(l.mac_block_addr(i)), "mac block {i} overlaps");
            }
        }
    }

    #[test]
    fn slm_write_read_roundtrip() {
        let layout = ChvLayout::new(4096, MacGranularity::SingleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        let blocks: Vec<(u64, Block)> = (0..19u64)
            .map(|i| (i * 0x4000, [i as u8 + 1; 64]))
            .collect();
        let mut t = Cycles::ZERO;
        for (i, (addr, data)) in blocks.iter().enumerate() {
            t = w.push(&mut p, 100 + i as u64, *addr, data, "chv_data", t);
        }
        w.finish(&mut p, t);
        assert_eq!(w.count(), 19);
        assert_eq!(p.nvm.stats().get("mem.write.chv_data"), 19);
        assert_eq!(p.nvm.stats().get("mem.write.chv_addr"), 3);
        assert_eq!(p.nvm.stats().get("mem.write.chv_mac"), 3);

        let r = ChvReader::new(layout, &K1, &K2);
        for (i, (addr, data)) in blocks.iter().enumerate() {
            let (e, _) = r.read_entry_slm(&mut p, i as u64, 100 + i as u64, Cycles::ZERO);
            let e = e.expect("entry verifies");
            assert_eq!(e.orig_addr, *addr);
            assert_eq!(e.data, *data);
        }
    }

    #[test]
    fn slm_wrong_dc_fails() {
        let layout = ChvLayout::new(0, MacGranularity::SingleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        w.push(&mut p, 7, 0x1000, &[9u8; 64], "chv_data", Cycles::ZERO);
        w.finish(&mut p, Cycles::ZERO);
        let r = ChvReader::new(layout, &K1, &K2);
        let (ok, _) = r.read_entry_slm(&mut p, 0, 7, Cycles::ZERO);
        assert!(ok.is_some());
        let (bad, _) = r.read_entry_slm(&mut p, 0, 8, Cycles::ZERO);
        assert!(bad.is_none(), "a replayed/shifted DC must fail");
    }

    #[test]
    fn dlm_write_read_roundtrip_with_partial_group() {
        let layout = ChvLayout::new(0, MacGranularity::DoubleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        // 70 entries: one full supergroup + partial (6 entries).
        let blocks: Vec<(u64, Block)> = (0..70u64)
            .map(|i| (i * 0x2000, [(i % 251) as u8; 64]))
            .collect();
        let mut t = Cycles::ZERO;
        for (i, (addr, data)) in blocks.iter().enumerate() {
            t = w.push(&mut p, 1000 + i as u64, *addr, data, "chv_data", t);
        }
        w.finish(&mut p, t);
        assert_eq!(p.nvm.stats().get("mem.write.chv_mac"), 2);
        assert_eq!(p.nvm.stats().get("mem.write.chv_addr"), 9);

        let r = ChvReader::new(layout, &K1, &K2);
        let mut restored = Vec::new();
        let mut base = 0u64;
        while base < 70 {
            let len = (70 - base).min(8) as usize;
            let (es, _) = r.read_group_dlm(&mut p, base, len, |i| 1000 + i, None, Cycles::ZERO);
            restored.extend(es.expect("group verifies"));
            base += 8;
        }
        assert_eq!(restored.len(), 70);
        for (e, (addr, data)) in restored.iter().zip(blocks.iter()) {
            assert_eq!(e.orig_addr, *addr);
            assert_eq!(e.data, *data);
        }
    }

    #[test]
    fn slm_group_read_matches_entry_read() {
        let layout = ChvLayout::new(0, MacGranularity::SingleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        let mut t = Cycles::ZERO;
        for i in 0..13u64 {
            t = w.push(
                &mut p,
                i + 50,
                i * 0x4000,
                &[(i + 1) as u8; 64],
                "chv_data",
                t,
            );
        }
        w.finish(&mut p, t);
        let r = ChvReader::new(layout, &K1, &K2);
        // Group read and per-entry read must agree entry for entry.
        let mut base = 0u64;
        let mut grouped = Vec::new();
        while base < 13 {
            let len = (13 - base).min(8) as usize;
            let (es, _) = r.read_group_slm(&mut p, base, len, |i| i + 50, Cycles::ZERO);
            grouped.extend(es.expect("group verifies"));
            base += 8;
        }
        for (i, g) in grouped.iter().enumerate() {
            let (e, _) = r.read_entry_slm(&mut p, i as u64, i as u64 + 50, Cycles::ZERO);
            assert_eq!(*g, e.expect("entry verifies"));
        }
    }

    #[test]
    fn slm_group_read_detects_member_tamper() {
        let layout = ChvLayout::new(0, MacGranularity::SingleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        let mut t = Cycles::ZERO;
        for i in 0..8u64 {
            t = w.push(&mut p, i + 1, i * 0x1000, &[i as u8; 64], "chv_data", t);
        }
        w.finish(&mut p, t);
        let victim = layout.data_addr(6);
        let mut ct = p.nvm.device().read_block(victim);
        ct[33] ^= 4;
        p.nvm.device_mut().write_block(victim, ct);
        let r = ChvReader::new(layout, &K1, &K2);
        let (res, _) = r.read_group_slm(&mut p, 0, 8, |i| i + 1, Cycles::ZERO);
        assert!(res.is_none(), "a tampered member must fail the group");
    }

    #[test]
    fn dlm_preloaded_mac_block_skips_the_read() {
        let layout = ChvLayout::new(0, MacGranularity::DoubleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        let mut t = Cycles::ZERO;
        for i in 0..8u64 {
            t = w.push(&mut p, i + 1, i * 0x1000, &[1u8; 64], "chv_data", t);
        }
        w.finish(&mut p, t);
        let r = ChvReader::new(layout, &K1, &K2);
        let mac_block = p.nvm.device().read_block(layout.mac_block_addr(0));
        let before = p.nvm.stats().get("mem.read.chv_mac");
        let (res, _) = r.read_group_dlm(&mut p, 0, 8, |i| i + 1, Some(mac_block), Cycles::ZERO);
        assert!(res.is_some());
        assert_eq!(
            p.nvm.stats().get("mem.read.chv_mac"),
            before,
            "no extra MAC-block read"
        );
    }

    #[test]
    fn dlm_detects_tampered_member() {
        let layout = ChvLayout::new(0, MacGranularity::DoubleLevel);
        let mut p = Platform::paper_default();
        let mut w = ChvWriter::new(layout, &K1, &K2);
        let mut t = Cycles::ZERO;
        for i in 0..8u64 {
            t = w.push(&mut p, i + 1, i * 0x1000, &[i as u8; 64], "chv_data", t);
        }
        w.finish(&mut p, t);
        // Flip one bit in the 3rd member's ciphertext.
        let victim = layout.data_addr(2);
        let mut ct = p.nvm.device().read_block(victim);
        ct[10] ^= 0x80;
        p.nvm.device_mut().write_block(victim, ct);
        let r = ChvReader::new(layout, &K1, &K2);
        let (res, _) = r.read_group_dlm(&mut p, 0, 8, |i| i + 1, None, Cycles::ZERO);
        assert!(
            res.is_none(),
            "second-level MAC must catch a tampered member"
        );
    }

    #[test]
    fn mac_writes_are_8x_fewer_in_dlm() {
        let n = 512u64;
        let mut counts = Vec::new();
        for mode in [MacGranularity::SingleLevel, MacGranularity::DoubleLevel] {
            let layout = ChvLayout::new(0, mode);
            let mut p = Platform::paper_default();
            let mut w = ChvWriter::new(layout, &K1, &K2);
            let mut t = Cycles::ZERO;
            for i in 0..n {
                t = w.push(&mut p, i + 1, i * 0x1000, &[1u8; 64], "chv_data", t);
            }
            w.finish(&mut p, t);
            counts.push((p.nvm.stats().get("mem.write.chv_mac"), p.total_mac_ops()));
        }
        assert_eq!(
            counts[0].0,
            counts[1].0 * 8,
            "DLM writes 8x fewer MAC blocks"
        );
        // DLM computes 1.125x the MACs (one extra per 8).
        assert_eq!(counts[1].1, counts[0].1 + n / 8);
    }
}
