//! Fixture: takes `DbInner` while holding `EpochHub` — inverted.
impl Hub {
    fn republish(&self) {
        let hub = self.state.lock();
        let inner = self.inner.lock();
        let _ = (hub, inner);
    }
}
