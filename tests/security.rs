//! The security test suite: every attack the threat model (paper §IV-A)
//! allows against the CHV must be detected at recovery (§IV-C.4), for
//! both Horus MAC granularities.

use horus::core::attack;
use horus::core::{DrainScheme, RecoveryError, SecureEpdSystem, SystemConfig};

fn crashed(scheme: DrainScheme) -> SecureEpdSystem {
    let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
    for i in 0..64u64 {
        sys.write(i * 16448, [(i as u8).wrapping_mul(3).wrapping_add(1); 64])
            .expect("write");
    }
    sys.crash_and_drain(scheme);
    sys
}

/// What the full vault walk promises on a complete episode: recovery
/// fails at the 8-aligned base of the first group holding a tampered
/// entry (`first`), before a single block is re-installed, and the
/// episode stays pending.
fn assert_detected(sys: &mut SecureEpdSystem, first: u64, what: &str) {
    assert_eq!(
        sys.recover().map(|r| r.restored_blocks),
        Err(RecoveryError::ChvIntegrity {
            position: first / 8 * 8
        }),
        "{what}"
    );
    assert_eq!(sys.hierarchy().dirty_unique(), 0, "{what}: data restored");
    let meta = sys.metadata();
    assert!(
        meta.counter_cache().is_empty()
            && meta.mac_cache().is_empty()
            && meta.tree_cache().is_empty(),
        "{what}: metadata restored"
    );
    assert!(sys.episode().is_some(), "{what}: episode consumed");
}

const BOTH: [DrainScheme; 2] = [DrainScheme::HorusSlm, DrainScheme::HorusDlm];

#[test]
fn untampered_vault_recovers() {
    for scheme in BOTH {
        let mut sys = crashed(scheme);
        let rec = sys.recover().expect("clean vault verifies");
        assert!(rec.restored_blocks >= 64);
    }
}

#[test]
fn tampered_data_is_detected() {
    for scheme in BOTH {
        for entry in [0u64, 7, 33] {
            let mut sys = crashed(scheme);
            attack::tamper_data(&mut sys, entry);
            assert_detected(&mut sys, entry, &format!("{scheme} data entry {entry}"));
        }
    }
}

#[test]
fn tampered_address_is_detected() {
    for scheme in BOTH {
        for entry in [1u64, 8, 40] {
            let mut sys = crashed(scheme);
            attack::tamper_address(&mut sys, entry);
            assert_detected(&mut sys, entry, &format!("{scheme} address entry {entry}"));
        }
    }
}

#[test]
fn tampered_mac_is_detected() {
    for scheme in BOTH {
        for entry in [12u64, 63] {
            let mut sys = crashed(scheme);
            attack::tamper_mac(&mut sys, entry);
            assert_detected(&mut sys, entry, &format!("{scheme} mac entry {entry}"));
        }
    }
}

#[test]
fn full_splice_is_detected() {
    // Swapping entries *including* their address and MAC slots: only the
    // positional drain counter distinguishes them.
    for scheme in BOTH {
        let mut sys = crashed(scheme);
        attack::splice_entries(&mut sys, 3, 19);
        assert_detected(&mut sys, 3, &format!("{scheme} splice 3<->19"));
    }
}

#[test]
fn splice_within_one_mac_block_is_detected() {
    // Entries 0 and 5 share an address block and (SLM) a MAC block, so
    // even the coalesced-block granularity cannot hide the swap.
    for scheme in BOTH {
        let mut sys = crashed(scheme);
        attack::splice_entries(&mut sys, 0, 5);
        assert_detected(&mut sys, 0, &format!("{scheme} splice 0<->5"));
    }
}

#[test]
fn replayed_episode_is_detected() {
    for scheme in BOTH {
        let mut sys = crashed(scheme);
        let snapshot = attack::snapshot_chv(&sys);
        sys.recover().expect("first recovery");
        for i in 0..64u64 {
            sys.write(i * 16448, [0xEE; 64]).expect("write");
        }
        sys.crash_and_drain(scheme);
        attack::replay_chv(&mut sys, &snapshot);
        assert_detected(&mut sys, 0, &format!("{scheme} replay"));
    }
}

#[test]
fn truncation_is_detected() {
    for scheme in BOTH {
        let mut sys = crashed(scheme);
        let n = sys.episode().expect("episode").blocks;
        attack::truncate_chv(&mut sys, n - 2);
        assert_detected(&mut sys, n - 2, &format!("{scheme} truncate"));
    }
}

#[test]
fn snapshot_covers_whole_episode() {
    let sys = crashed(DrainScheme::HorusSlm);
    let snap = attack::snapshot_chv(&sys);
    let n = sys.episode().expect("episode").blocks;
    assert!(!snap.is_empty());
    // Data + address + MAC blocks.
    assert_eq!(snap.len() as u64, n + 2 * n.div_ceil(8));
}

#[test]
fn tampered_shadow_region_is_detected_for_lazy_baseline() {
    // The Anubis-style shadow flush is protected by the small tree.
    let mut sys = SecureEpdSystem::for_scheme(SystemConfig::small_test(), DrainScheme::BaseLazy);
    for i in 0..64u64 {
        sys.write(i * 16448, [5u8; 64]).expect("write");
    }
    sys.crash_and_drain(DrainScheme::BaseLazy);
    let shadow = sys.map().shadow_base();
    let mut block = sys.platform().nvm.device().read_block(shadow);
    block[17] ^= 0x40;
    // Direct attacker access to the device.
    sys.attacker_nvm().write_block(shadow, block);
    match sys.recover() {
        Err(RecoveryError::Metadata(_)) => {}
        other => panic!("expected shadow tamper detection, got {other:?}"),
    }
}

#[test]
fn runtime_nvm_tampering_is_detected_on_read() {
    let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
    for i in 0..512u64 {
        sys.write(i * 4096, [9u8; 64]).expect("write");
    }
    // Find a line that lives only in NVM and corrupt it.
    let victim = (0..512u64)
        .map(|i| i * 4096)
        .find(|a| {
            sys.platform().nvm.device().is_written(*a) && sys.hierarchy().llc().peek(*a).is_none()
        })
        .expect("an evicted line");
    let mut ct = sys.platform().nvm.device().read_block(victim);
    ct[2] ^= 2;
    sys.attacker_nvm().write_block(victim, ct);
    assert!(
        sys.read(victim).is_err(),
        "ciphertext tamper must fail the data MAC"
    );
}
