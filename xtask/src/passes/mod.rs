//! The pass registry. Each pass scans the shared [`SourceModel`] and emits
//! [`Finding`]s; ratcheted passes name a baseline file under
//! `xtask/baselines/`, zero-tolerance passes return `None` and any finding
//! fails outright.

pub mod hot_loop_alloc;
pub mod lock_order;
pub mod lossy_cast;
pub mod panic;

use crate::findings::Finding;
use crate::model::SourceModel;

pub trait Pass {
    /// CLI name (`analyze <name>`) and baseline stem.
    fn name(&self) -> &'static str;
    fn description(&self) -> &'static str;
    /// Repo-relative baseline path, or `None` for zero-tolerance passes.
    fn baseline_file(&self) -> Option<&'static str> {
        Some(match self.name() {
            "panic" => "xtask/baselines/panic.txt",
            "lossy-cast" => "xtask/baselines/lossy-cast.txt",
            "hot-loop-alloc" => "xtask/baselines/hot-loop-alloc.txt",
            _ => return None,
        })
    }
    fn run(&self, model: &SourceModel) -> Vec<Finding>;
}

/// All passes, in the order `analyze` runs them.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic::PanicCensus),
        Box::new(lock_order::LockOrder),
        Box::new(lossy_cast::LossyCast),
        Box::new(hot_loop_alloc::HotLoopAlloc),
    ]
}
