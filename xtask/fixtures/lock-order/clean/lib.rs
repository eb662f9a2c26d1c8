//! Fixture: acquisitions in documented rank order — `lock-order` clean.
impl Database {
    fn statement(&self) {
        let mut inner = self.inner.lock();
        let mut cfg = self.settings.lock();
        self.tenants.lock().clear();
        let _ = (&mut inner, &mut cfg);
    }
}
