//! The security-metadata engine: caches + update schemes.
//!
//! This implements the run-time metadata path of a secure NVM controller
//! (paper §II-B/C) — exactly the machinery the *baseline* secure EPD
//! systems keep using while draining the cache hierarchy, and the source
//! of their 10x memory-access blow-up (§III):
//!
//! * every counter fetch that misses the counter cache costs a memory
//!   read **plus** a Merkle-path verification walk (more reads + MAC
//!   computations until the first tree-cache hit, or the root);
//! * every insertion can evict a dirty metadata block, which costs a
//!   write **and** (in the lazy scheme) an update of its parent tree
//!   node, which may itself miss, fetch, verify, and evict — a cascade;
//! * the eager scheme instead pays a full path update (one MAC per tree
//!   level) on every single counter bump.
//!
//! All of it is functional: MACs really are verified, and a mismatch
//! surfaces as an [`IntegrityError`].

use crate::bmt::{decode_node, encode_node, Bmt};
use crate::counter::{CounterBlock, Increment};
use crate::platform::Platform;
use horus_cache::{CacheGeometry, EvictedLine, ReplacementPolicy, SetAssocCache};
use horus_crypto::Mac64;
use horus_nvm::{AddressMap, Block, Region};
use horus_sim::Cycles;
use serde::{Deserialize, Serialize};

/// How the Merkle tree is brought up to date (paper §II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateScheme {
    /// Update a parent only when a dirty child is evicted from the
    /// metadata cache. Fast at run time; the root is stale until all
    /// dirty nodes are flushed.
    Lazy,
    /// Update the whole affected path, including the on-chip root, on
    /// every counter write.
    Eager,
}

impl std::fmt::Display for UpdateScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateScheme::Lazy => write!(f, "lazy"),
            UpdateScheme::Eager => write!(f, "eager"),
        }
    }
}

/// Sizes of the three metadata caches (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetadataCacheConfig {
    /// Counter cache capacity in bytes (Table I: 256 KB).
    pub counter_cache_bytes: u64,
    /// MAC cache capacity in bytes (Table I: 512 KB).
    pub mac_cache_bytes: u64,
    /// Merkle-tree cache capacity in bytes (Table I: 256 KB).
    pub tree_cache_bytes: u64,
    /// Associativity of all three (Table I: 8).
    pub ways: usize,
    /// Replacement policy of all three (ablation knob; LRU by default).
    pub policy: ReplacementPolicy,
}

impl MetadataCacheConfig {
    /// The paper's Table I metadata caches.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            counter_cache_bytes: 256 * 1024,
            mac_cache_bytes: 512 * 1024,
            tree_cache_bytes: 256 * 1024,
            ways: 8,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Total lines across the three caches — what the final metadata
    /// flush must move.
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        (self.counter_cache_bytes + self.mac_cache_bytes + self.tree_cache_bytes) / 64
    }
}

impl Default for MetadataCacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// An integrity-verification failure: a stored MAC did not match the
/// recomputed one. In hardware this halts the machine; in the simulator
/// it is an error the caller surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// The physical address of the object that failed verification.
    pub addr: u64,
    /// What kind of object failed (`"counter"`, `"tree-node"`, …).
    pub what: &'static str,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "integrity verification failed for {} at {:#x}",
            self.what, self.addr
        )
    }
}

impl std::error::Error for IntegrityError {}

/// The result of bumping a block's write counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterUpdate {
    /// Advance/overflow outcome; `outcome.counter()` is the counter to
    /// encrypt with.
    pub outcome: Increment,
    /// The counter block before the increment (needed to re-encrypt the
    /// page on overflow).
    pub old: CounterBlock,
    /// The counter block after the increment.
    pub new: CounterBlock,
    /// When the metadata work completed.
    pub ready: Cycles,
}

/// The metadata engine: the three metadata caches, the functional BMT,
/// and the update-scheme logic.
#[derive(Debug, Clone)]
pub struct MetadataEngine {
    map: AddressMap,
    scheme: UpdateScheme,
    counter_cache: SetAssocCache,
    mac_cache: SetAssocCache,
    tree_cache: SetAssocCache,
    bmt: Bmt,
    small_tree_root: Option<Mac64>,
    shadow_blocks: Option<u64>,
    /// Victim buffer: tree nodes whose eviction is in flight (written to
    /// NVM but their parent entry not yet updated). A fetch hitting this
    /// buffer is served trusted, exactly like hardware's write-back
    /// MSHRs — without it, a nested eviction cascade could re-fetch the
    /// node from NVM before the parent entry catches up and fail
    /// verification spuriously.
    wb_tree: horus_sim::FxHashMap<u64, Block>,
    /// Reinstall generations: bumped whenever a node is served out of the
    /// victim buffer back into the cache. An in-flight eviction whose
    /// node was reinstalled (and possibly re-modified and re-evicted)
    /// must *not* apply its now-stale parent update — the reinstalled
    /// copy is dirty and its own eviction carries the fresh one.
    wb_reinstall_gen: horus_sim::FxHashMap<u64, u64>,
    /// Osiris-style stop-loss: when set to `K`, a counter block is
    /// persisted (with its tree update) whenever a counter crosses a
    /// multiple of `K` or overflows, bounding how far any stored counter
    /// can lag its true value — the property Osiris-style disaster
    /// recovery needs (every true counter lies within `K` of the stored
    /// one).
    osiris_stop_loss: Option<u64>,
}

impl MetadataEngine {
    /// Builds an engine over `map` with the given scheme, cache sizes,
    /// and tree key.
    ///
    /// # Panics
    ///
    /// Panics if the BMT geometry derived from the key/leaf count does
    /// not match the address map's reserved levels.
    #[must_use]
    pub fn new(
        map: AddressMap,
        scheme: UpdateScheme,
        caches: MetadataCacheConfig,
        tree_key: &[u8; 16],
    ) -> Self {
        let bmt = Bmt::new(tree_key, map.counter_blocks());
        assert_eq!(
            bmt.levels(),
            map.bmt_levels(),
            "BMT geometry must match the address map's reserved levels"
        );
        Self {
            counter_cache: SetAssocCache::with_policy(
                CacheGeometry::new("counter$", caches.counter_cache_bytes, caches.ways),
                caches.policy,
            ),
            mac_cache: SetAssocCache::with_policy(
                CacheGeometry::new("mac$", caches.mac_cache_bytes, caches.ways),
                caches.policy,
            ),
            tree_cache: SetAssocCache::with_policy(
                CacheGeometry::new("tree$", caches.tree_cache_bytes, caches.ways),
                caches.policy,
            ),
            map,
            scheme,
            bmt,
            small_tree_root: None,
            shadow_blocks: None,
            wb_tree: horus_sim::FxHashMap::default(),
            wb_reinstall_gen: horus_sim::FxHashMap::default(),
            osiris_stop_loss: None,
        }
    }

    /// Enables Osiris-style counter persistence with the given stop-loss
    /// (see the field docs); returns the engine for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `stop_loss` is zero.
    #[must_use]
    pub fn with_osiris(mut self, stop_loss: u64) -> Self {
        assert!(stop_loss > 0, "stop-loss must be positive");
        self.osiris_stop_loss = Some(stop_loss);
        self
    }

    /// The Osiris stop-loss in force, if any.
    #[must_use]
    pub fn osiris_stop_loss(&self) -> Option<u64> {
        self.osiris_stop_loss
    }

    /// Enables or disables the Osiris discipline on a live engine.
    ///
    /// # Panics
    ///
    /// Panics if `stop_loss` is `Some(0)`.
    pub fn set_osiris(&mut self, stop_loss: Option<u64>) {
        assert!(stop_loss != Some(0), "stop-loss must be positive");
        self.osiris_stop_loss = stop_loss;
    }

    /// Installs a root computed by an external tree rebuild (the Osiris
    /// disaster-recovery path) as the on-chip root.
    pub fn install_rebuilt_root(&mut self, root: Mac64) {
        self.bmt.set_root(root);
    }

    /// The update scheme in force.
    #[must_use]
    pub fn scheme(&self) -> UpdateScheme {
        self.scheme
    }

    /// The physical address map.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The on-chip Merkle root.
    #[must_use]
    pub fn root(&self) -> Mac64 {
        self.bmt.root()
    }

    /// The BMT calculator (geometry, defaults, recompute helpers).
    #[must_use]
    pub fn bmt(&self) -> &Bmt {
        &self.bmt
    }

    /// The root of the small tree computed over the metadata cache during
    /// the lazy scheme's final flush, if one has been computed.
    #[must_use]
    pub fn small_tree_root(&self) -> Option<Mac64> {
        self.small_tree_root
    }

    /// The counter cache (inspection/statistics).
    #[must_use]
    pub fn counter_cache(&self) -> &SetAssocCache {
        &self.counter_cache
    }

    /// The MAC cache (inspection/statistics).
    #[must_use]
    pub fn mac_cache(&self) -> &SetAssocCache {
        &self.mac_cache
    }

    /// The Merkle-tree cache (inspection/statistics).
    #[must_use]
    pub fn tree_cache(&self) -> &SetAssocCache {
        &self.tree_cache
    }

    // ----- tree node storage helpers -------------------------------------

    /// Reads a tree node's authoritative bytes from NVM, substituting the
    /// level's default for never-written nodes.
    fn node_from_nvm(
        &mut self,
        p: &mut Platform,
        level: usize,
        index: u64,
        ready: Cycles,
    ) -> (Block, Cycles) {
        let addr = self.map.bmt_node_addr(level, index);
        let (bytes, c) = p.nvm.read_written(addr, "tree", ready);
        let bytes = bytes.unwrap_or_else(|| self.bmt.default_node(level));
        (bytes, c.done)
    }

    /// The MAC a node/counter's parent should hold for `bytes`.
    fn child_mac(&self, bytes: &Block) -> Mac64 {
        self.bmt.node_mac(bytes)
    }

    /// Fetches tree node `(level, index)` through the tree cache,
    /// verifying it on a miss against its parent (fetched recursively) or
    /// the on-chip root. Fetched nodes are cached clean; any evictions
    /// this causes are fully processed.
    ///
    /// Eviction cascades triggered while servicing the miss can insert —
    /// or insert *and re-evict* — the very node being fetched, so each
    /// step re-checks the cache and retries; the retry bound only trips
    /// on pathologically tiny cache geometries.
    fn fetch_tree_node(
        &mut self,
        p: &mut Platform,
        level: usize,
        index: u64,
        ready: Cycles,
    ) -> Result<(Block, Cycles), IntegrityError> {
        let addr = self.map.bmt_node_addr(level, index);
        let mut t = ready;
        for _ in 0..64 {
            if let Some(b) = self.tree_cache.lookup(addr) {
                return Ok((*b, t));
            }
            if let Some(b) = self.wb_tree.get(&addr).copied() {
                // Victim-buffer hit: the node just left the trusted cache
                // and its write-back is in flight — serve it trusted and
                // reinstall it.
                *self.wb_reinstall_gen.entry(addr).or_insert(0) += 1;
                // Reinstall dirty: the in-flight eviction's parent update
                // will be cancelled, so this copy's own eventual eviction
                // must re-emit it.
                let spill = self.tree_cache.insert(addr, b, true);
                t = self.process_spill(p, spill, t)?;
                if let Some(bb) = self.tree_cache.peek(addr) {
                    return Ok((*bb, t));
                }
                continue; // the reinstall was itself evicted; retry
            }
            // Establish the trusted expectation first: the parent's entry
            // (recursively verified) or the on-chip root for the top node.
            let expected = if level == self.bmt.levels() - 1 {
                self.bmt.root()
            } else {
                let (pi, slot) = Bmt::parent_of(index);
                let (pbytes, pt) = self.fetch_tree_node(p, level + 1, pi, t)?;
                t = pt;
                decode_node(&pbytes)[slot]
            };
            if self.tree_cache.contains(addr) {
                // A cascade during the parent fetch brought the node in
                // (possibly with updates); use the cached copy.
                continue;
            }
            let (bytes, rt) = self.node_from_nvm(p, level, index, t);
            let vc = p.mac_op("verify_tree", rt);
            t = vc.done;
            if self.child_mac(&bytes) != expected {
                return Err(IntegrityError {
                    addr,
                    what: "tree-node",
                });
            }
            let spill = self.tree_cache.insert(addr, bytes, false);
            t = self.process_spill(p, spill, t)?;
            // The cascade may have evicted the node again; loop re-checks.
        }
        panic!("metadata cache livelock fetching tree node {addr:#x}");
    }

    /// Writes `child_mac` into slot `slot` of tree node `(level, index)`
    /// (fetching and verifying the node first), marking the node dirty.
    /// Under the eager scheme the change propagates to the root.
    #[allow(clippy::too_many_arguments)] // internal: (level, index, slot) + guard is clearer inline
    fn update_tree_entry(
        &mut self,
        p: &mut Platform,
        level: usize,
        index: u64,
        slot: usize,
        child_mac: Mac64,
        guard: Option<(u64, u64)>,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        let addr = self.map.bmt_node_addr(level, index);
        let mut t = ready;
        let new_bytes = loop {
            let (bytes, ft) = self.fetch_tree_node(p, level, index, t)?;
            t = ft;
            if let Some((child_addr, gen0)) = guard {
                // The fetch may have run an eviction cascade that served
                // the child out of the victim buffer (reinstalling it
                // dirty, possibly modified and re-evicted with a fresh
                // parent update). Applying this update now would clobber
                // the fresh entry with a stale MAC — cancel it; the
                // reinstalled copy's own eviction owns the update.
                if self.wb_reinstall_gen.get(&child_addr).copied().unwrap_or(0) != gen0 {
                    return Ok(t);
                }
            }
            let mut entries = decode_node(&bytes);
            entries[slot] = child_mac;
            let candidate = encode_node(&entries);
            // The fetch's trailing eviction cascade can evict the node
            // again before we apply the update; re-fetch and retry.
            if self.tree_cache.write_hit(addr, candidate) {
                break candidate;
            }
        };

        if self.scheme == UpdateScheme::Eager {
            // Propagate: recompute this node's MAC and update the parent,
            // level by level, finishing at the on-chip root.
            let mac = self.child_mac(&new_bytes);
            let c = p.mac_op("update_tree", t);
            t = c.done;
            if level == self.bmt.levels() - 1 {
                self.bmt.set_root(mac);
            } else {
                let (pi, pslot) = Bmt::parent_of(index);
                t = self.update_tree_entry(p, level + 1, pi, pslot, mac, None, t)?;
            }
        }
        Ok(t)
    }

    /// Fully processes an eviction spill (and any cascade it causes).
    fn process_spill(
        &mut self,
        p: &mut Platform,
        spill: Option<EvictedLine>,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        let mut t = ready;
        // Cascades recurse through `update_tree_entry`, so one spill is
        // one line.
        if let Some(line) = spill.filter(|l| l.dirty) {
            match self.map.region_of(line.addr) {
                Region::Counter => {
                    let c = p.nvm.write(line.addr, line.data, "counter_evict", t);
                    t = c.done;
                    if self.scheme == UpdateScheme::Lazy {
                        let cidx = (line.addr - self.map.counter_block_addr(0)) / 64;
                        let (pi, slot) = Bmt::parent_of(cidx);
                        let mac = self.child_mac(&line.data);
                        let mc = p.mac_op("update_tree", t);
                        t = self.update_tree_entry(p, 0, pi, slot, mac, None, mc.done)?;
                    }
                }
                Region::Bmt(level) => {
                    let mac = self.child_mac(&line.data);
                    let gen0 = self.wb_reinstall_gen.get(&line.addr).copied().unwrap_or(0);
                    self.wb_tree.insert(line.addr, line.data);
                    let c = p.nvm.write(line.addr, line.data, "tree_evict", t);
                    t = c.done;
                    if self.scheme == UpdateScheme::Lazy {
                        let base = self.map.bmt_node_addr(level, 0);
                        let idx = (line.addr - base) / 64;
                        let mc = p.mac_op("update_tree", t);
                        t = mc.done;
                        let res = if level == self.bmt.levels() - 1 {
                            self.bmt.set_root(mac);
                            Ok(t)
                        } else {
                            let (pi, slot) = Bmt::parent_of(idx);
                            self.update_tree_entry(
                                p,
                                level + 1,
                                pi,
                                slot,
                                mac,
                                Some((line.addr, gen0)),
                                t,
                            )
                        };
                        self.wb_tree.remove(&line.addr);
                        t = res?;
                    } else {
                        self.wb_tree.remove(&line.addr);
                    }
                }
                Region::Mac => {
                    let c = p.nvm.write(line.addr, line.data, "mac_evict", t);
                    t = c.done;
                }
                other => panic!("metadata cache held a non-metadata block in {other:?}"),
            }
        }
        Ok(t)
    }

    // ----- counter path ---------------------------------------------------

    /// Fetches (and on a miss, verifies) the counter block covering
    /// `data_addr` into the counter cache, returning its parsed form.
    fn fetch_counter_block(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        ready: Cycles,
    ) -> Result<(CounterBlock, Cycles), IntegrityError> {
        let cb_addr = self.map.counter_block_addr(data_addr);
        if let Some(b) = self.counter_cache.lookup(cb_addr) {
            return Ok((CounterBlock::from_block(b), ready));
        }
        let (bytes, c) = p.nvm.read(cb_addr, "counter", ready);
        let mut t = c.done;
        // A never-written counter block reads as all-zero, which is also
        // its genuine initial value — no substitution needed.
        let cidx = self.map.counter_index(data_addr);
        let (pi, slot) = Bmt::parent_of(cidx);
        let (parent, pt) = self.fetch_tree_node(p, 0, pi, t)?;
        t = pt;
        let mac = self.child_mac(&bytes);
        let vc = p.mac_op("verify_counter", t);
        t = vc.done;
        if decode_node(&parent)[slot] != mac {
            return Err(IntegrityError {
                addr: cb_addr,
                what: "counter",
            });
        }
        let spill = self.counter_cache.insert(cb_addr, bytes, false);
        t = self.process_spill(p, spill, t)?;
        Ok((CounterBlock::from_block(&bytes), t))
    }

    /// Reads the current encryption counter for `data_addr` (a read-path
    /// operation: verify, do not modify).
    pub fn read_counter(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        ready: Cycles,
    ) -> Result<(u64, Cycles), IntegrityError> {
        let slot = self.map.counter_slot(data_addr);
        let (cb, t) = self.fetch_counter_block(p, data_addr, ready)?;
        Ok((cb.counter(slot), t))
    }

    /// Bumps the write counter for `data_addr` (the write path): fetch +
    /// verify, increment, mark dirty, and update the tree per the scheme.
    pub fn increment_counter(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        ready: Cycles,
    ) -> Result<CounterUpdate, IntegrityError> {
        let slot = self.map.counter_slot(data_addr);
        let cb_addr = self.map.counter_block_addr(data_addr);
        let (old, mut t) = self.fetch_counter_block(p, data_addr, ready)?;
        let mut new = old;
        let outcome = new.increment(slot);
        self.counter_cache.write_hit(cb_addr, new.to_block());

        if let Some(k) = self.osiris_stop_loss {
            if outcome.overflowed() || outcome.counter() % k == 0 {
                // Stop-loss hit: persist the counter block now, with its
                // tree entry, so the stored counter never lags by >= k.
                let bytes = new.to_block();
                let c = p.nvm.write(cb_addr, bytes, "counter_osiris", t);
                t = c.done;
                self.counter_cache.mark_clean(cb_addr);
                if self.scheme == UpdateScheme::Lazy {
                    let cidx = self.map.counter_index(data_addr);
                    let (pi, pslot) = Bmt::parent_of(cidx);
                    let mac = self.child_mac(&bytes);
                    let mc = p.mac_op("update_tree", t);
                    t = self.update_tree_entry(p, 0, pi, pslot, mac, None, mc.done)?;
                }
            }
        }

        if self.scheme == UpdateScheme::Eager {
            let cidx = self.map.counter_index(data_addr);
            let (pi, pslot) = Bmt::parent_of(cidx);
            let mac = self.child_mac(&new.to_block());
            let mc = p.mac_op("update_tree", t);
            t = self.update_tree_entry(p, 0, pi, pslot, mac, None, mc.done)?;
        }
        Ok(CounterUpdate {
            outcome,
            old,
            new,
            ready: t,
        })
    }

    // ----- data-MAC path ---------------------------------------------------

    fn fetch_mac_block(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        ready: Cycles,
    ) -> Result<(Block, Cycles), IntegrityError> {
        let mb_addr = self.map.mac_block_addr(data_addr);
        if let Some(b) = self.mac_cache.lookup(mb_addr) {
            return Ok((*b, ready));
        }
        let (bytes, c) = p.nvm.read(mb_addr, "mac", ready);
        let spill = self.mac_cache.insert(mb_addr, bytes, false);
        let t = self.process_spill(p, spill, c.done)?;
        Ok((bytes, t))
    }

    /// Stores the data MAC for `data_addr` (read-modify-write of its MAC
    /// block through the MAC cache).
    pub fn store_mac(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        mac: Mac64,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        let mb_addr = self.map.mac_block_addr(data_addr);
        let slot = self.map.mac_slot(data_addr);
        let (mut bytes, mut t) = self.fetch_mac_block(p, data_addr, ready)?;
        bytes[slot * 8..(slot + 1) * 8].copy_from_slice(&mac.0);
        self.mac_cache.write_hit(mb_addr, bytes);
        if self.osiris_stop_loss.is_some() {
            // Osiris co-locates the MAC with the data line's ECC bits, so
            // data and MAC persist atomically; model that as a write-
            // through of the MAC block.
            let c = p.nvm.write(mb_addr, bytes, "mac_osiris", t);
            t = c.done;
            self.mac_cache.mark_clean(mb_addr);
        }
        Ok(t)
    }

    /// Loads the data MAC for `data_addr`.
    pub fn load_mac(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        ready: Cycles,
    ) -> Result<(Mac64, Cycles), IntegrityError> {
        let slot = self.map.mac_slot(data_addr);
        let (bytes, t) = self.fetch_mac_block(p, data_addr, ready)?;
        let mut m = [0u8; 8];
        m.copy_from_slice(&bytes[slot * 8..(slot + 1) * 8]);
        Ok((Mac64(m), t))
    }

    // ----- final metadata flush (end of a baseline drain) ------------------

    /// Flushes the metadata caches at the end of a drain (paper §IV-B).
    ///
    /// * **Eager**: dirty blocks are written back in place; the root is
    ///   already up to date, so memory is immediately verifiable.
    /// * **Lazy**: the root is stale, so instead of propagating every
    ///   pending update through the tree, the cache *contents* are
    ///   protected by a small Merkle tree (one MAC per 8 blocks,
    ///   hierarchically to a single on-chip root) and streamed to the
    ///   reserved shadow region, Anubis-style.
    ///
    /// Returns when the flush traffic completes. The caches are cleared
    /// (the hierarchy loses power afterwards).
    pub fn flush_after_drain(&mut self, p: &mut Platform, ready: Cycles) -> Cycles {
        let mut t = ready;
        match self.scheme {
            UpdateScheme::Eager => {
                let caches = [&self.counter_cache, &self.mac_cache, &self.tree_cache];
                let mut dirty: Vec<(u64, Block)> = Vec::new();
                for c in caches {
                    dirty.extend(c.dirty_lines().map(|(a, b)| (a, *b)));
                }
                for (addr, bytes) in dirty {
                    let c = p.nvm.write(addr, bytes, "meta_flush", t);
                    t = t.max(c.start); // stream: issue in order, banks overlap
                }
                t = p.nvm.busy_until().max(t);
            }
            UpdateScheme::Lazy => {
                // Stream every valid block (with its tag) to the shadow
                // region and build the small tree over the stream.
                let mut blocks: Vec<(u64, Block)> = Vec::new();
                for c in [&self.counter_cache, &self.mac_cache, &self.tree_cache] {
                    blocks.extend(c.iter().map(|(a, b, _)| (a, *b)));
                }
                let base = self.map.shadow_base();
                let mut cursor = base;
                let mut level_macs: Vec<Mac64> = Vec::with_capacity(blocks.len());
                let mut tags = [0u8; 64];
                let mut tag_n = 0usize;
                for (i, (addr, bytes)) in blocks.iter().enumerate() {
                    let c = p.nvm.write(cursor, *bytes, "shadow", t);
                    t = t.max(c.start);
                    cursor += 64;
                    // Tag blocks: 8 original addresses per 64-byte block.
                    tags[tag_n * 8..(tag_n + 1) * 8].copy_from_slice(&addr.to_le_bytes());
                    tag_n += 1;
                    if tag_n == 8 || i + 1 == blocks.len() {
                        let c = p.nvm.write(cursor, tags, "shadow", t);
                        t = t.max(c.start);
                        cursor += 64;
                        tags = [0u8; 64];
                        tag_n = 0;
                    }
                    let mc = p.mac_op("small_tree", t);
                    level_macs.push(self.bmt.node_mac(bytes));
                    t = t.max(mc.start);
                }
                // Reduce 8:1 until a single root remains.
                while level_macs.len() > 1 {
                    let mut next = Vec::with_capacity(level_macs.len().div_ceil(8));
                    for chunk in level_macs.chunks(8) {
                        let mut node = [0u8; 64];
                        for (i, m) in chunk.iter().enumerate() {
                            node[i * 8..(i + 1) * 8].copy_from_slice(&m.0);
                        }
                        let mc = p.mac_op("small_tree", t);
                        t = t.max(mc.start);
                        next.push(self.bmt.node_mac(&node));
                    }
                    level_macs = next;
                }
                self.small_tree_root = level_macs.first().copied();
                self.shadow_blocks = Some(blocks.len() as u64);
                t = p.busy_until().max(t);
            }
        }
        self.counter_cache.clear();
        self.mac_cache.clear();
        self.tree_cache.clear();
        t
    }

    /// Exhaustively checks the fetch-verification invariant (test/debug
    /// aid, linear in tree size — use small maps): for every uncached
    /// counter block / tree node `N`, the MAC of its NVM bytes must match
    /// the entry held by the authoritative copy of its parent (cache copy
    /// if cached, else NVM), and the top node must match the root
    /// register. Returns a description of the first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated edge.
    #[doc(hidden)]
    pub fn check_consistency(&self, dev: &horus_nvm::NvmDevice) -> Result<(), String> {
        let auth_node = |level: usize, idx: u64| -> Block {
            let addr = self.map.bmt_node_addr(level, idx);
            if let Some(b) = self.tree_cache.peek(addr) {
                *b
            } else if dev.is_written(addr) {
                dev.read_block(addr)
            } else {
                self.bmt.default_node(level)
            }
        };
        // Counter blocks against level-0 nodes.
        for cidx in 0..self.map.counter_blocks() {
            let caddr = self.map.counter_block_addr(0) + cidx * 64;
            if self.counter_cache.contains(caddr) || !dev.is_written(caddr) {
                continue;
            }
            let (pi, slot) = Bmt::parent_of(cidx);
            let expected = decode_node(&auth_node(0, pi))[slot];
            let actual = self.child_mac(&dev.read_block(caddr));
            if expected != actual {
                return Err(format!(
                    "counter block {cidx} (addr {caddr:#x}): stored bytes do not match L0 node {pi} slot {slot}"
                ));
            }
        }
        // Tree nodes against their parents / the root.
        for level in 0..self.bmt.levels() {
            for idx in 0..self.map.bmt_level_nodes(level) {
                let addr = self.map.bmt_node_addr(level, idx);
                if self.tree_cache.contains(addr) {
                    continue;
                }
                let bytes = if dev.is_written(addr) {
                    dev.read_block(addr)
                } else {
                    self.bmt.default_node(level)
                };
                let actual = self.child_mac(&bytes);
                let expected = if level == self.bmt.levels() - 1 {
                    self.bmt.root()
                } else {
                    let (pi, slot) = Bmt::parent_of(idx);
                    decode_node(&auth_node(level + 1, pi))[slot]
                };
                if expected != actual {
                    return Err(format!(
                        "tree node L{level}[{idx}] (addr {addr:#x}): stored bytes do not match its parent entry"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Strictly persists the metadata covering `data_addr`: the counter
    /// block, the MAC block, and every cached node on the affected tree
    /// path are written through to NVM and marked clean.
    ///
    /// This is what a secure **ADR** system must do per durable store
    /// (paper §II-D: metadata updates "need to push ... to the
    /// persistence domain atomically along with the data") — and exactly
    /// the cost EPD systems avoid at run time. Requires the eager
    /// scheme: under lazy updates the tree would be stale in NVM and the
    /// data unrecoverable.
    ///
    /// # Panics
    ///
    /// Panics if the engine runs the lazy scheme.
    ///
    /// # Errors
    ///
    /// Currently none, but the signature matches the other metadata
    /// operations for uniform call sites.
    pub fn persist_strict(
        &mut self,
        p: &mut Platform,
        data_addr: u64,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        assert_eq!(
            self.scheme,
            UpdateScheme::Eager,
            "strict persistence needs eager tree updates (lazy leaves the NVM tree stale)"
        );
        let mut t = ready;
        let cb_addr = self.map.counter_block_addr(data_addr);
        if self.counter_cache.is_dirty(cb_addr) {
            let bytes = *self
                .counter_cache
                .peek(cb_addr)
                .expect("dirty implies present");
            let c = p.nvm.write(cb_addr, bytes, "counter_persist", t);
            t = c.done;
            self.counter_cache.mark_clean(cb_addr);
        }
        let mb_addr = self.map.mac_block_addr(data_addr);
        if self.mac_cache.is_dirty(mb_addr) {
            let bytes = *self.mac_cache.peek(mb_addr).expect("dirty implies present");
            let c = p.nvm.write(mb_addr, bytes, "mac_persist", t);
            t = c.done;
            self.mac_cache.mark_clean(mb_addr);
        }
        let mut idx = self.map.counter_index(data_addr) / 8;
        for level in 0..self.bmt.levels() {
            let addr = self.map.bmt_node_addr(level, idx);
            if self.tree_cache.is_dirty(addr) {
                let bytes = *self.tree_cache.peek(addr).expect("dirty implies present");
                let c = p.nvm.write(addr, bytes, "tree_persist", t);
                t = c.done;
                self.tree_cache.mark_clean(addr);
            }
            idx /= 8;
        }
        Ok(t)
    }

    /// Drops all cache contents without writing anything back — the
    /// power-loss path for schemes (Horus) that vault their dirty
    /// metadata elsewhere.
    pub fn clear_caches_on_power_loss(&mut self) {
        self.counter_cache.clear();
        self.mac_cache.clear();
        self.tree_cache.clear();
    }

    /// Re-installs a recovered metadata block into the cache for its
    /// region, in dirty state (the Horus recovery path for drained
    /// metadata-cache contents).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a metadata address.
    pub fn restore_block(
        &mut self,
        p: &mut Platform,
        addr: u64,
        block: Block,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        let spill = match self.map.region_of(addr) {
            Region::Counter => self.counter_cache.insert(addr, block, true),
            Region::Mac => self.mac_cache.insert(addr, block, true),
            Region::Bmt(_) => self.tree_cache.insert(addr, block, true),
            other => panic!("cannot restore a {other:?} block into the metadata caches"),
        };
        self.process_spill(p, spill, ready)
    }

    /// Recovers the metadata-cache contents from the shadow region after
    /// a lazy-scheme drain: reads the stream back, re-verifies the small
    /// tree against its on-chip root, and re-installs every block dirty.
    ///
    /// Returns the number of restored blocks and the completion time.
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] if the recomputed small-tree root does not
    /// match the on-chip value (the shadow region was tampered with), or
    /// if no shadow flush was recorded.
    pub fn recover_from_shadow(
        &mut self,
        p: &mut Platform,
        ready: Cycles,
    ) -> Result<(u64, Cycles), IntegrityError> {
        let n = self.shadow_blocks.ok_or(IntegrityError {
            addr: self.map.shadow_base(),
            what: "shadow-region (no flush recorded)",
        })?;
        let expected_root = self.small_tree_root.expect("root recorded with the flush");
        let base = self.map.shadow_base();
        let mut t = ready;
        let mut cursor = base;
        let mut blocks: Vec<(u64, Block)> = Vec::with_capacity(n as usize);
        let mut group: Vec<Block> = Vec::with_capacity(8);
        let mut macs: Vec<Mac64> = Vec::with_capacity(n as usize);
        let mut read = 0u64;
        while read < n {
            let take = (n - read).min(8);
            group.clear();
            for _ in 0..take {
                let (b, c) = p.nvm.read(cursor, "shadow", t);
                t = c.done;
                cursor += 64;
                group.push(b);
            }
            let (tags, c) = p.nvm.read(cursor, "shadow", t);
            t = c.done;
            cursor += 64;
            for (k, b) in group.iter().enumerate() {
                let mut a = [0u8; 8];
                a.copy_from_slice(&tags[k * 8..(k + 1) * 8]);
                blocks.push((u64::from_le_bytes(a), *b));
                let mc = p.mac_op("small_tree", t);
                t = t.max(mc.start);
                macs.push(self.bmt.node_mac(b));
            }
            read += take;
        }
        // Reduce to the root exactly as the flush did.
        while macs.len() > 1 {
            let mut next = Vec::with_capacity(macs.len().div_ceil(8));
            for chunk in macs.chunks(8) {
                let mut node = [0u8; 64];
                for (i, m) in chunk.iter().enumerate() {
                    node[i * 8..(i + 1) * 8].copy_from_slice(&m.0);
                }
                let mc = p.mac_op("small_tree", t);
                t = t.max(mc.start);
                next.push(self.bmt.node_mac(&node));
            }
            macs = next;
        }
        if macs.first().copied() != Some(expected_root) {
            return Err(IntegrityError {
                addr: base,
                what: "shadow-region",
            });
        }
        for (addr, block) in blocks {
            t = self.restore_block(p, addr, block, t)?;
        }
        self.shadow_blocks = None;
        Ok((n, t.max(p.busy_until())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_nvm::AddressMap;

    fn small_map() -> AddressMap {
        // 1 MB data -> 256 counter blocks -> BMT 32/4/1.
        AddressMap::new(1 << 20, 256, 64)
    }

    fn tiny_caches() -> MetadataCacheConfig {
        MetadataCacheConfig {
            counter_cache_bytes: 8 * 64,
            mac_cache_bytes: 8 * 64,
            tree_cache_bytes: 8 * 64,
            ways: 2,
            policy: ReplacementPolicy::Lru,
        }
    }

    fn engine(scheme: UpdateScheme) -> (MetadataEngine, Platform) {
        let e = MetadataEngine::new(small_map(), scheme, tiny_caches(), &[7; 16]);
        (e, Platform::paper_default())
    }

    #[test]
    fn fresh_counter_reads_zero_and_verifies() {
        let (mut e, mut p) = engine(UpdateScheme::Lazy);
        let (c, _) = e.read_counter(&mut p, 0x40, Cycles(0)).expect("verify");
        assert_eq!(c, 0);
        // The miss cost one counter read and at least one tree read.
        assert!(p.nvm.stats().get("mem.read.counter") == 1);
        assert!(p.nvm.stats().get("mem.read.tree") >= 1);
        assert!(p.stats().get("macop.verify_counter") == 1);
    }

    #[test]
    fn increment_advances_and_hits_cache() {
        let (mut e, mut p) = engine(UpdateScheme::Lazy);
        let u1 = e.increment_counter(&mut p, 0x80, Cycles(0)).expect("ok");
        assert_eq!(u1.outcome.counter(), 1);
        let u2 = e.increment_counter(&mut p, 0x80, Cycles(0)).expect("ok");
        assert_eq!(u2.outcome.counter(), 2);
        // Second access hit the counter cache: still one memory read.
        assert_eq!(p.nvm.stats().get("mem.read.counter"), 1);
    }

    #[test]
    fn eager_updates_root_on_every_increment() {
        let (mut e, mut p) = engine(UpdateScheme::Eager);
        let r0 = e.root();
        e.increment_counter(&mut p, 0, Cycles(0)).expect("ok");
        let r1 = e.root();
        assert_ne!(r0, r1);
        e.increment_counter(&mut p, 0, Cycles(0)).expect("ok");
        assert_ne!(e.root(), r1);
        // Path updates: one MAC per level + the counter's own entry.
        assert!(p.stats().get("macop.update_tree") >= e.bmt().levels() as u64);
    }

    #[test]
    fn lazy_keeps_root_stale_until_evictions() {
        let (mut e, mut p) = engine(UpdateScheme::Lazy);
        let r0 = e.root();
        e.increment_counter(&mut p, 0, Cycles(0)).expect("ok");
        assert_eq!(
            e.root(),
            r0,
            "lazy scheme must not touch the root on a write"
        );
    }

    #[test]
    fn mac_store_load_roundtrip() {
        let (mut e, mut p) = engine(UpdateScheme::Lazy);
        let mac = Mac64::from(0xdead_beef);
        e.store_mac(&mut p, 0x1000, mac, Cycles(0)).expect("ok");
        let (m, _) = e.load_mac(&mut p, 0x1000, Cycles(0)).expect("ok");
        assert_eq!(m, mac);
        // Neighbour slot unaffected.
        let (m2, _) = e.load_mac(&mut p, 0x1040, Cycles(0)).expect("ok");
        assert_eq!(m2, Mac64::ZERO);
    }

    #[test]
    fn eviction_cascade_writes_back_and_keeps_integrity() {
        let (mut e, mut p) = engine(UpdateScheme::Lazy);
        // Touch many distinct counter blocks (stride = one 4 KB page) to
        // overflow the tiny 16-line counter cache.
        for i in 0..64u64 {
            e.increment_counter(&mut p, i * 4096, Cycles(0))
                .expect("ok");
        }
        assert!(
            p.nvm.stats().get("mem.write.counter_evict") > 0,
            "evictions must write back"
        );
        // Every previously evicted counter must still verify when
        // re-fetched (parent entries were kept consistent).
        for i in 0..64u64 {
            let (c, _) = e
                .read_counter(&mut p, i * 4096, Cycles(0))
                .expect("verify after evict");
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn eager_eviction_needs_no_tree_update() {
        let (mut e, mut p) = engine(UpdateScheme::Eager);
        for i in 0..64u64 {
            e.increment_counter(&mut p, i * 4096, Cycles(0))
                .expect("ok");
        }
        // Re-fetch all: parents were eagerly correct.
        for i in 0..64u64 {
            let (c, _) = e.read_counter(&mut p, i * 4096, Cycles(0)).expect("verify");
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn tampered_counter_is_detected() {
        let (mut e, mut p) = engine(UpdateScheme::Eager);
        e.increment_counter(&mut p, 0, Cycles(0)).expect("ok");
        // Push it out to memory by touching other counter blocks.
        for i in 1..64u64 {
            e.increment_counter(&mut p, i * 4096, Cycles(0))
                .expect("ok");
        }
        let cb_addr = e.map().counter_block_addr(0);
        assert!(
            p.nvm.device().is_written(cb_addr),
            "counter must be in memory"
        );
        let mut tampered = p.nvm.device().read_block(cb_addr);
        tampered[8] ^= 1;
        p.nvm.device_mut().write_block(cb_addr, tampered);
        // Drop any cached copy so the fetch goes to memory.
        // (The cache is tiny; after 64 distinct blocks it cannot hold
        // block 0, but be explicit for robustness.)
        let err = match e.read_counter(&mut p, 0, Cycles(0)) {
            Err(err) => Some(err),
            Ok(_) => {
                // Cached — evict by touching more blocks, then retry.
                for i in 64..128u64 {
                    e.increment_counter(&mut p, i * 4096, Cycles(0))
                        .expect("ok");
                }
                e.read_counter(&mut p, 0, Cycles(0)).err()
            }
        };
        let err = err.expect("tampering must be detected");
        assert_eq!(err.what, "counter");
    }

    #[test]
    fn tampered_tree_node_is_detected() {
        let (mut e, mut p) = engine(UpdateScheme::Eager);
        for i in 0..64u64 {
            e.increment_counter(&mut p, i * 4096, Cycles(0))
                .expect("ok");
        }
        // Tamper a written level-0 node in memory.
        let target = (0..32)
            .map(|i| e.map().bmt_node_addr(0, i))
            .find(|a| p.nvm.device().is_written(*a))
            .expect("some node was evicted to memory");
        let mut bytes = p.nvm.device().read_block(target);
        bytes[0] ^= 0xff;
        p.nvm.device_mut().write_block(target, bytes);
        // Clear the tree cache by a fresh engine sharing the same NVM:
        // simplest is to re-create the engine (root survives on-chip).
        let root = e.root();
        let mut e2 = MetadataEngine::new(small_map(), UpdateScheme::Eager, tiny_caches(), &[7; 16]);
        e2.bmt_set_root_for_test(root);
        let mut failed = false;
        for i in 0..64u64 {
            if e2.read_counter(&mut p, i * 4096, Cycles(0)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(
            failed,
            "a tampered tree node must fail verification somewhere"
        );
    }

    #[test]
    fn eager_flush_makes_memory_state_match_root() {
        let (mut e, mut p) = engine(UpdateScheme::Eager);
        for i in 0..32u64 {
            e.increment_counter(&mut p, i * 4096, Cycles(0))
                .expect("ok");
        }
        e.flush_after_drain(&mut p, Cycles(0));
        assert!(p.nvm.stats().get("mem.write.meta_flush") > 0);
        // Recompute the root from NVM: must equal the on-chip root.
        let map = small_map();
        let dev = p.nvm.device();
        let recomputed = e.bmt().recompute_root(
            map.counter_blocks(),
            |i| {
                let a = map.counter_block_addr(0) + i * 64;
                dev.is_written(a).then(|| dev.read_block(a))
            },
            |l, i| {
                let a = map.bmt_node_addr(l, i);
                dev.is_written(a).then(|| dev.read_block(a))
            },
        );
        assert_eq!(
            recomputed,
            e.root(),
            "eager flush must leave a verifiable tree"
        );
    }

    #[test]
    fn lazy_flush_builds_small_tree_and_shadows() {
        let (mut e, mut p) = engine(UpdateScheme::Lazy);
        for i in 0..16u64 {
            e.increment_counter(&mut p, i * 4096, Cycles(0))
                .expect("ok");
        }
        assert!(e.small_tree_root().is_none());
        e.flush_after_drain(&mut p, Cycles(0));
        assert!(e.small_tree_root().is_some());
        assert!(p.nvm.stats().get("mem.write.shadow") > 0);
        assert!(p.stats().get("macop.small_tree") > 0);
        assert!(
            e.counter_cache().is_empty(),
            "caches cleared after power-off flush"
        );
    }

    impl MetadataEngine {
        fn bmt_set_root_for_test(&mut self, root: Mac64) {
            self.bmt.set_root(root);
        }
    }
}
