//! Fixture: acquisitions in documented rank order — `lock-order` clean.
impl Hub {
    fn publish(&self) {
        let mut inner = self.inner.lock();
        let mut hub = self.state.lock();
        self.tenants.lock().clear();
        let _ = (&mut inner, &mut hub);
    }
}
