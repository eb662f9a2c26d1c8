//! Fixture: takes `DbInner` while holding `Settings` — inverted.
impl Database {
    fn reconfigure(&self) {
        let cfg = self.settings.lock();
        let inner = self.inner.lock();
        let _ = (cfg, inner);
    }
}
