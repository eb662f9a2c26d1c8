//! Per-tenant admission control.
//!
//! Every connection authenticates a tenant id at handshake; every query
//! then passes through [`TenantRegistry::admit`] before its connection
//! thread may run it. Admission enforces two per-tenant quotas —
//! concurrent in-flight queries and in-flight SQL bytes — plus a global
//! in-flight cap, the one ceiling on statements executing inside the
//! engine at once. When any of the three is saturated the request is
//! *shed* immediately with a typed, retryable [`Error::Overloaded`]
//! carrying a `retry_after_ms` hint, instead of waiting for a slot.
//! Shedding at admission is the memory-flatness guarantee: a saturating
//! client holds at most `max_concurrent` slots and `max_queued_bytes` of
//! SQL in the server, no matter how fast it submits.
//!
//! Locking: the registry's mutex is [`LockClass::TenantRegistry`], the
//! strict *leaf* of the engine's documented lock order. Admission
//! bookkeeping is take-lock/update/release — never held across a call
//! into the engine — and the runtime lock-order validator enforces
//! exactly that.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion::lockorder::{LockClass, OrderedMutex};
use grfusion_common::{Error, Result};

/// Per-tenant admission quotas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum queries a tenant may have in flight.
    pub max_concurrent: usize,
    /// Maximum bytes of SQL a tenant may have in flight.
    pub max_queued_bytes: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_concurrent: 4,
            max_queued_bytes: 1 << 20,
        }
    }
}

/// Live admission counters for one tenant.
#[derive(Debug, Default, Clone, Copy)]
struct TenantState {
    in_flight: usize,
    queued_bytes: usize,
    admitted: u64,
    shed: u64,
}

/// Counters snapshot for one tenant (monitoring / harness output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    pub tenant: String,
    pub in_flight: usize,
    pub queued_bytes: usize,
    pub admitted: u64,
    pub shed: u64,
}

/// Everything the registry lock guards: the per-tenant counters and the
/// running sum of their `in_flight`.
#[derive(Default)]
struct Admission {
    by_tenant: HashMap<String, TenantState>,
    in_flight: usize,
}

/// The admission registry shared by every connection thread.
pub struct TenantRegistry {
    tenants: OrderedMutex<Admission>,
    quota: TenantQuota,
    /// Global in-flight cap across all tenants; the backstop that bounds
    /// the engine's concurrency even with many tenants each inside their
    /// own quota.
    global_limit: usize,
    retry_after_ms: u64,
}

impl TenantRegistry {
    pub fn new(quota: TenantQuota, global_limit: usize, retry_after_ms: u64) -> TenantRegistry {
        TenantRegistry {
            tenants: OrderedMutex::new(LockClass::TenantRegistry, Admission::default()),
            quota,
            global_limit,
            retry_after_ms,
        }
    }

    /// Admit one query of `sql_bytes` for `tenant`, or shed with
    /// [`Error::Overloaded`]. On admission the returned [`Permit`] holds
    /// the slot; dropping it releases the slot (response written, client
    /// gone, or statement panicked — the RAII guard covers every exit path).
    pub fn admit(self: &Arc<Self>, tenant: &str, sql_bytes: usize) -> Result<Permit> {
        let mut tenants = self.tenants.lock();
        let over_global = tenants.in_flight >= self.global_limit;
        let st = tenants.by_tenant.entry(tenant.to_string()).or_default();
        let over_tenant = st.in_flight >= self.quota.max_concurrent
            || st.queued_bytes.saturating_add(sql_bytes) > self.quota.max_queued_bytes;
        if over_tenant || over_global {
            st.shed += 1;
            return Err(Error::overloaded(self.retry_after_ms));
        }
        st.in_flight += 1;
        st.queued_bytes += sql_bytes;
        st.admitted += 1;
        tenants.in_flight += 1;
        drop(tenants);
        Ok(Permit {
            registry: self.clone(),
            tenant: tenant.to_string(),
            sql_bytes,
        })
    }

    fn release(&self, tenant: &str, sql_bytes: usize) {
        let mut tenants = self.tenants.lock();
        if let Some(st) = tenants.by_tenant.get_mut(tenant) {
            st.in_flight = st.in_flight.saturating_sub(1);
            st.queued_bytes = st.queued_bytes.saturating_sub(sql_bytes);
            tenants.in_flight = tenants.in_flight.saturating_sub(1);
        }
    }

    /// Per-tenant counter snapshot, sorted by tenant id.
    pub fn stats(&self) -> Vec<TenantStats> {
        let tenants = self.tenants.lock();
        let mut out: Vec<TenantStats> = tenants
            .by_tenant
            .iter()
            .map(|(name, st)| TenantStats {
                tenant: name.clone(),
                in_flight: st.in_flight,
                queued_bytes: st.queued_bytes,
                admitted: st.admitted,
                shed: st.shed,
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Total queries currently in flight.
    pub fn total_in_flight(&self) -> usize {
        self.tenants.lock().in_flight
    }
}

/// RAII admission slot: holds one unit of the tenant's concurrency quota
/// and `sql_bytes` of its byte quota until dropped.
pub struct Permit {
    registry: Arc<TenantRegistry>,
    tenant: String,
    sql_bytes: usize,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("tenant", &self.tenant)
            .field("sql_bytes", &self.sql_bytes)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.registry.release(&self.tenant, self.sql_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(max_concurrent: usize, max_bytes: usize, global: usize) -> Arc<TenantRegistry> {
        Arc::new(TenantRegistry::new(
            TenantQuota {
                max_concurrent,
                max_queued_bytes: max_bytes,
            },
            global,
            25,
        ))
    }

    #[test]
    fn concurrency_quota_sheds_then_recovers() {
        let r = registry(1, 1 << 20, 100);
        let p1 = r.admit("a", 10).unwrap();
        let err = r.admit("a", 10).unwrap_err();
        assert_eq!(err, Error::overloaded(25));
        assert!(err.is_retryable());
        // Another tenant is unaffected by a's saturation.
        let _pb = r.admit("b", 10).unwrap();
        drop(p1);
        let _p2 = r.admit("a", 10).unwrap();
        let stats = r.stats();
        let a = stats.iter().find(|s| s.tenant == "a").unwrap();
        assert_eq!(a.admitted, 2);
        assert_eq!(a.shed, 1);
    }

    #[test]
    fn byte_quota_sheds_big_queue() {
        let r = registry(10, 100, 100);
        let _p1 = r.admit("a", 60).unwrap();
        assert!(r.admit("a", 60).is_err());
        let _p2 = r.admit("a", 40).unwrap();
        assert!(r.admit("a", 1).is_err());
    }

    #[test]
    fn global_limit_backstops_many_tenants() {
        let r = registry(10, 1 << 20, 2);
        let _p1 = r.admit("a", 1).unwrap();
        let _p2 = r.admit("b", 1).unwrap();
        let err = r.admit("c", 1).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }));
        assert_eq!(r.total_in_flight(), 2);
    }

    #[test]
    fn permit_drop_releases_on_every_path() {
        let r = registry(1, 100, 10);
        {
            let _p = r.admit("a", 50).unwrap();
            assert_eq!(r.total_in_flight(), 1);
        }
        assert_eq!(r.total_in_flight(), 0);
        assert_eq!(r.stats()[0].queued_bytes, 0);
    }
}
