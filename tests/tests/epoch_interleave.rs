//! Seeded-scheduler interleaving tests for the epoch publication hot path:
//! the `Arc` swap in `EpochHub::install` and the pin/unpin accounting that
//! drives reclamation.
//!
//! The first test is a deterministic model check: a seeded scheduler
//! interleaves publish / pin / unpin / verify steps on one thread and
//! cross-checks the engine's `(live epochs, retained bytes)` against a
//! shadow model after every step — any divergence replays exactly from
//! the seed. The second test is a threaded stress run (real `Arc` races)
//! whose end state must still reclaim down to the single current epoch.
//! Std-only by design: determinism comes from the seeded schedule, not
//! from instrumented locks.

use std::collections::BTreeMap;

use grfusion::{CsrConfig, Database, EngineConfig, EpochConfig, EpochSnapshot, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small chain graph with epoch publication on.
fn tiny_db() -> Database {
    let db = Database::with_config(EngineConfig {
        csr: CsrConfig::sealed(),
        epochs: EpochConfig::enabled(),
        ..Default::default()
    });
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..20i64).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let erows: Vec<Vec<Value>> = (0..19i64)
        .map(|i| {
            vec![
                Value::Integer(i),
                Value::Integer(i),
                Value::Integer(i + 1),
                Value::Double(1.0),
            ]
        })
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db
}

/// Deterministic seeded schedule over publish / pin / unpin / verify,
/// shadow-modelled: after every step, the engine's live-epoch count and
/// retained bytes must equal what the set of held pins implies.
#[test]
fn seeded_interleavings_preserve_pin_accounting() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xE90C_0000 ^ seed);
        let db = tiny_db();
        // Held pins with the epoch number and dump captured at pin time.
        let mut held: Vec<(EpochSnapshot, u64, String)> = Vec::new();
        let mut next_id = 1000i64;
        let mut current = db.current_epoch().expect("epoch published after setup");
        for step in 0..120 {
            match rng.gen_range(0..4u32) {
                0 => {
                    // Writer publishes: every committed statement swaps in
                    // a new epoch with a strictly larger number.
                    db.execute(&format!("INSERT INTO v VALUES ({next_id})")).unwrap();
                    next_id += 1;
                    let now = db.current_epoch().unwrap();
                    assert!(now > current, "seed {seed} step {step}: epoch went backwards");
                    current = now;
                }
                1 => {
                    // Reader pins: always lands on the current epoch.
                    let snap = db.pin_snapshot().expect("pin with publication on");
                    assert_eq!(snap.number(), current, "seed {seed} step {step}");
                    let dump = snap.state_dump();
                    held.push((snap, current, dump));
                }
                2 => {
                    // Reader unpins (a seeded victim).
                    if !held.is_empty() {
                        let victim = rng.gen_range(0..held.len());
                        held.remove(victim);
                    }
                }
                _ => {
                    // Verify: every held pin still dumps exactly what it
                    // dumped at pin time, however many swaps happened.
                    for (snap, number, dump) in &held {
                        assert_eq!(
                            &snap.state_dump(),
                            dump,
                            "seed {seed} step {step}: epoch {number} dump changed"
                        );
                    }
                }
            }
            // Shadow model: live = distinct pinned epochs plus the current
            // one; retained = bytes of distinct pinned non-current epochs.
            let mut distinct: BTreeMap<u64, usize> = BTreeMap::new();
            for (snap, number, _) in &held {
                distinct.insert(*number, snap.bytes());
            }
            let live = distinct.len() + usize::from(!distinct.contains_key(&current));
            let retained: usize = distinct
                .iter()
                .filter(|(n, _)| **n != current)
                .map(|(_, b)| *b)
                .sum();
            assert_eq!(
                db.epoch_stats(),
                (live, retained),
                "seed {seed} step {step}: accounting diverged from the model"
            );
        }
        drop(held);
        assert_eq!(db.epoch_stats(), (1, 0), "seed {seed}: end-state leak");
    }
}

/// Real-thread stress over the same path: four pin/unpin threads race one
/// writer through genuine `Arc` swaps. Each thread checks its own pins
/// stay immutable; afterwards everything must reclaim.
#[test]
fn threaded_pin_unpin_stress_reclaims_cleanly() {
    let db = std::sync::Arc::new(tiny_db());
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xACE ^ t);
                for _ in 0..200 {
                    let snap = db.pin_snapshot().expect("pin under stress");
                    let before = snap.state_dump();
                    if rng.gen::<bool>() {
                        std::thread::yield_now();
                    }
                    assert_eq!(snap.state_dump(), before, "pinned epoch mutated");
                }
            });
        }
        let db = db.clone();
        scope.spawn(move || {
            for i in 0..100i64 {
                db.execute(&format!("INSERT INTO v VALUES ({})", 5000 + i)).unwrap();
            }
        });
    });
    assert_eq!(db.epoch_stats(), (1, 0), "stress run leaked epochs");
    // And the engine is still healthy: the chain traverses end to end.
    let rs = db
        .execute(
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
             AND PS.EndVertex.Id = 19 AND PS.Length <= 30 LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Integer(19));
}
