//! Fixture: takes `DbInner` while holding `TenantRegistry` — inverted.
impl Server {
    fn admit_and_run(&self) {
        let tenants = self.tenants.lock();
        let inner = self.inner.lock();
        let _ = (tenants, inner);
    }
}
