//! Runtime lock-order cross-validator.
//!
//! The static `lock-order` pass in `xtask` (see
//! `xtask/src/passes/lock_order.rs`) checks acquisition nesting from
//! source text; this module checks the *same rank table* dynamically, so
//! the two validate each other: a discipline the static pass cannot see
//! (acquisition split across functions) still trips the runtime guard,
//! and a static false positive would show up as a suite that passes here.
//!
//! [`OrderedMutex`] wraps `parking_lot::Mutex` with a [`LockClass`]; each
//! thread keeps a stack of held classes, and acquiring a class whose rank
//! is ≤ the innermost held rank panics with both class names. The
//! documented order (DESIGN.md) is the whole of [`LockClass::ALL`]:
//!
//! `DbInner` (0) → `Settings` (1) → `TenantRegistry` (2).
//!
//! Tables and graph topologies are not in it: `DbInner` owns them by value,
//! so reaching one *is* holding rank 0.
//!
//! Gating mirrors the operator contract check: on in debug builds (the
//! whole test suite cross-validates), compiled out in release, where the
//! wrapper is a plain mutex.

use std::cell::RefCell;

use parking_lot::{Mutex, MutexGuard};

/// Ranked lock classes. `tests/tests/lint_gate.rs` holds this table equal,
/// row for row, to the static pass's `CLASSES`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockClass {
    /// `Database.inner` — the outermost engine lock, and the owner of every
    /// live table and topology.
    DbInner,
    /// `Database.settings` — the engine's one settings copy.
    Settings,
    /// The network front-end's tenant admission registry
    /// (`grfusion-server`). A strict leaf: admission bookkeeping must
    /// never be held across a call into the engine (which starts at
    /// `DbInner`, rank 0), so it ranks after every engine lock — holding
    /// it while acquiring anything engine-side trips the validator.
    TenantRegistry,
}

impl LockClass {
    /// Every class, in rank order.
    pub const ALL: [LockClass; 3] = [
        LockClass::DbInner,
        LockClass::Settings,
        LockClass::TenantRegistry,
    ];

    pub fn rank(self) -> u8 {
        match self {
            LockClass::DbInner => 0,
            LockClass::Settings => 1,
            LockClass::TenantRegistry => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            LockClass::DbInner => "DbInner",
            LockClass::Settings => "Settings",
            LockClass::TenantRegistry => "TenantRegistry",
        }
    }
}

thread_local! {
    /// Ranks of ordered locks this thread currently holds, in acquisition
    /// order (innermost last).
    static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
}

/// Record an acquisition; `Err` describes the violation. Split from the
/// panic so unit tests can exercise the checker without aborting.
pub(crate) fn note_acquire(class: LockClass) -> Result<(), String> {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&worst) = held.iter().filter(|h| h.rank() >= class.rank()).max_by_key(|h| h.rank()) {
            let order: Vec<&str> = LockClass::ALL.iter().map(|c| c.name()).collect();
            return Err(format!(
                "lock-order violation: acquiring `{}` (rank {}) while holding `{}` (rank {}); \
                 documented order is {}",
                class.name(),
                class.rank(),
                worst.name(),
                worst.rank(),
                order.join(" -> ")
            ));
        }
        held.push(class);
        Ok(())
    })
}

/// Record a release (guard drop). Removes the innermost entry of `class`.
pub(crate) fn note_release(class: LockClass) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == class) {
            held.remove(pos);
        }
    });
}

/// A `parking_lot::Mutex` that participates in lock-order validation.
pub struct OrderedMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub fn new(class: LockClass, value: T) -> OrderedMutex<T> {
        OrderedMutex { class, inner: Mutex::new(value) }
    }

    pub fn lock(&self) -> OrderedGuard<'_, T> {
        if cfg!(debug_assertions) {
            if let Err(msg) = note_acquire(self.class) {
                panic!("{msg}");
            }
        }
        OrderedGuard { guard: self.inner.lock(), class: self.class }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex").field("class", &self.class).field("inner", &self.inner).finish()
    }
}

/// Guard returned by [`OrderedMutex::lock`]; pops the held-stack entry on
/// drop in debug builds.
pub struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    class: LockClass,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            note_release(self.class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_held() {
        HELD.with(|h| h.borrow_mut().clear());
    }

    #[test]
    fn conforming_nesting_is_accepted() {
        drain_held();
        assert!(note_acquire(LockClass::DbInner).is_ok());
        assert!(note_acquire(LockClass::Settings).is_ok());
        assert!(note_acquire(LockClass::TenantRegistry).is_ok());
        note_release(LockClass::TenantRegistry);
        note_release(LockClass::Settings);
        note_release(LockClass::DbInner);
    }

    #[test]
    fn inversion_is_rejected_with_both_class_names() {
        drain_held();
        assert!(note_acquire(LockClass::Settings).is_ok());
        let err = note_acquire(LockClass::DbInner).unwrap_err();
        assert!(err.contains("`DbInner` (rank 0)"), "{err}");
        assert!(err.contains("`Settings` (rank 1)"), "{err}");
        assert!(
            err.ends_with("documented order is DbInner -> Settings -> TenantRegistry"),
            "{err}"
        );
        note_release(LockClass::Settings);
    }

    #[test]
    fn same_class_recursion_is_rejected() {
        drain_held();
        assert!(note_acquire(LockClass::Settings).is_ok());
        assert!(note_acquire(LockClass::Settings).is_err());
        note_release(LockClass::Settings);
    }

    #[test]
    fn release_unwinds_and_reacquire_is_clean() {
        drain_held();
        assert!(note_acquire(LockClass::Settings).is_ok());
        note_release(LockClass::Settings);
        assert!(note_acquire(LockClass::DbInner).is_ok());
        note_release(LockClass::DbInner);
    }

    #[test]
    fn ordered_mutex_roundtrip() {
        let m = OrderedMutex::new(LockClass::Settings, 41);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 42);
    }
}
