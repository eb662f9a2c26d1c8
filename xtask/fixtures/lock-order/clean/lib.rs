//! Fixture: acquisitions in documented rank order — `lock-order` clean.
impl Server {
    fn statement(&self) {
        let mut inner = self.inner.lock();
        self.tenants.lock().clear();
        let _ = &mut inner;
    }
}
