//! Tenant and service configuration, loaded from a JSON file.
//!
//! The file the `--tenant-config` flag points at looks like:
//!
//! ```json
//! {
//!   "fallback": { "name": "anonymous", "burst": 100, "refill_per_sec": 5.0 },
//!   "tenants": [
//!     { "name": "team-a", "burst": 10, "refill_per_sec": 0.0, "max_in_flight": 8 },
//!     { "name": "team-b", "burst": 5 }
//!   ],
//!   "quick_threshold": 8,
//!   "runners": 2,
//!   "lease_ms": 30000
//! }
//! ```
//!
//! Every field is optional; `0` means *unlimited* for `burst` and
//! `max_in_flight` and *no refill* for `refill_per_sec` (a fixed
//! budget — what the CI soak lane uses so its shed counts are exact
//! rather than racing the wall clock). Requests whose `X-Horus-Tenant`
//! header names no configured tenant all share the single fallback
//! tenant's bucket, which keeps the `tenant` metric label bounded by
//! this file.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// Admission limits for one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPolicy {
    /// Tenant id, matched against the `X-Horus-Tenant` header.
    pub name: String,
    /// Token-bucket capacity: submissions the tenant may burst before
    /// refill matters. `0` = unlimited (admission never sheds on
    /// budget).
    #[serde(default)]
    pub burst: u64,
    /// Tokens regained per second, up to `burst`. `0` = never (the
    /// budget is fixed for the process lifetime).
    #[serde(default)]
    pub refill_per_sec: f64,
    /// Distinct plans the tenant may have queued or executing at once.
    /// `0` = unlimited.
    #[serde(default)]
    pub max_in_flight: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            name: String::from("anonymous"),
            burst: 0,
            refill_per_sec: 0.0,
            max_in_flight: 0,
        }
    }
}

impl TenantPolicy {
    /// An unlimited policy named `name` — handy in tests.
    #[must_use]
    pub fn unlimited(name: &str) -> Self {
        TenantPolicy {
            name: name.to_string(),
            ..TenantPolicy::default()
        }
    }
}

/// Whole-service configuration: tenant policies plus queue/runner knobs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Explicitly configured tenants.
    #[serde(default)]
    pub tenants: Vec<TenantPolicy>,
    /// The shared policy for requests with no (or an unknown) tenant
    /// header.
    #[serde(default)]
    pub fallback: TenantPolicy,
    /// Plans with at most this many specs count as interactive and jump
    /// the bulk queue. `0` = use [`ServiceConfig::DEFAULT_QUICK_THRESHOLD`].
    #[serde(default)]
    pub quick_threshold: usize,
    /// Plan-runner threads (each executes one admitted plan at a time
    /// on the shared harness pool). `0` = use
    /// [`ServiceConfig::DEFAULT_RUNNERS`].
    #[serde(default)]
    pub runners: usize,
    /// How long a leased job batch stays held without a renew before
    /// it requeues (remote workers renew at a third of it). `0` = use
    /// [`ServiceConfig::DEFAULT_LEASE_MS`].
    #[serde(default)]
    pub lease_ms: u64,
}

impl ServiceConfig {
    /// Plans at most this long are interactive when `quick_threshold`
    /// is left at `0`.
    pub const DEFAULT_QUICK_THRESHOLD: usize = 8;
    /// Runner threads when `runners` is left at `0`.
    pub const DEFAULT_RUNNERS: usize = 2;
    /// Lease length when `lease_ms` is left at `0`.
    pub const DEFAULT_LEASE_MS: u64 = 30_000;

    /// Parses a configuration from its JSON text.
    ///
    /// # Errors
    /// Returns a descriptive message on malformed JSON or duplicate
    /// tenant names.
    pub fn from_json(text: &str) -> Result<ServiceConfig, String> {
        let config: ServiceConfig =
            serde_json::from_str(text).map_err(|e| format!("invalid tenant config: {e}"))?;
        config.validate()?;
        Ok(config)
    }

    /// Reads and parses the configuration file at `path`.
    ///
    /// # Errors
    /// Returns a descriptive message when the file cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> Result<ServiceConfig, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// The effective interactive-plan length cutoff.
    #[must_use]
    pub fn effective_quick_threshold(&self) -> usize {
        if self.quick_threshold == 0 {
            Self::DEFAULT_QUICK_THRESHOLD
        } else {
            self.quick_threshold
        }
    }

    /// The effective runner-thread count.
    #[must_use]
    pub fn effective_runners(&self) -> usize {
        if self.runners == 0 {
            Self::DEFAULT_RUNNERS
        } else {
            self.runners
        }
    }

    /// The effective lease length.
    #[must_use]
    pub fn effective_lease(&self) -> std::time::Duration {
        std::time::Duration::from_millis(if self.lease_ms == 0 {
            Self::DEFAULT_LEASE_MS
        } else {
            self.lease_ms
        })
    }

    /// Every tenant name this configuration can ever label a metric
    /// with: the configured tenants plus the fallback.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.iter().map(|t| t.name.clone()).collect();
        names.push(self.fallback.name.clone());
        names
    }

    /// The policy for a tenant name, when explicitly configured.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&TenantPolicy> {
        self.tenants.iter().find(|t| t.name == name)
    }

    fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for tenant in &self.tenants {
            if tenant.name.is_empty() {
                return Err("tenant with empty name".to_string());
            }
            if !seen.insert(tenant.name.as_str()) {
                return Err(format!("duplicate tenant {:?}", tenant.name));
            }
            if tenant.refill_per_sec < 0.0 || !tenant.refill_per_sec.is_finite() {
                return Err(format!(
                    "tenant {:?}: refill_per_sec must be finite and >= 0",
                    tenant.name
                ));
            }
        }
        if seen.contains(self.fallback.name.as_str()) {
            return Err(format!(
                "fallback name {:?} collides with a configured tenant",
                self.fallback.name
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_shape() {
        let config = ServiceConfig::from_json(
            r#"{
                "fallback": {"name": "anonymous", "burst": 100, "refill_per_sec": 5.0, "max_in_flight": 0},
                "tenants": [
                    {"name": "team-a", "burst": 10, "refill_per_sec": 0.0, "max_in_flight": 8},
                    {"name": "team-b", "burst": 5, "refill_per_sec": 0.0, "max_in_flight": 0}
                ],
                "quick_threshold": 8,
                "runners": 2,
                "lease_ms": 500
            }"#,
        )
        .expect("parse");
        assert_eq!(config.tenants.len(), 2);
        assert_eq!(config.tenant("team-a").expect("team-a").burst, 10);
        assert_eq!(config.fallback.burst, 100);
        assert_eq!(config.effective_quick_threshold(), 8);
        assert_eq!(config.effective_runners(), 2);
        assert_eq!(config.effective_lease().as_millis(), 500);
        assert_eq!(config.tenant_names(), ["team-a", "team-b", "anonymous"]);
    }

    #[test]
    fn empty_object_is_fully_defaulted() {
        let config = ServiceConfig::from_json("{}").expect("parse");
        assert_eq!(config, ServiceConfig::default());
        assert_eq!(
            config.effective_quick_threshold(),
            ServiceConfig::DEFAULT_QUICK_THRESHOLD
        );
        assert_eq!(config.effective_runners(), ServiceConfig::DEFAULT_RUNNERS);
        assert_eq!(config.effective_lease().as_secs(), 30);
        assert!(config.tenant("nobody").is_none());
    }

    #[test]
    fn rejects_duplicates_and_bad_refill() {
        let dup = r#"{"tenants": [{"name": "a"}, {"name": "a"}]}"#;
        assert!(ServiceConfig::from_json(dup).is_err());
        let neg = r#"{"tenants": [{"name": "a", "refill_per_sec": -1.0}]}"#;
        assert!(ServiceConfig::from_json(neg).is_err());
        let clash = r#"{"tenants": [{"name": "anonymous"}]}"#;
        assert!(ServiceConfig::from_json(clash).is_err());
    }
}
