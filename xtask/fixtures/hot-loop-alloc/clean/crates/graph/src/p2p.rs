//! Fixture: a point-to-point kernel whose level loop reuses scratch
//! buffers and whose only allocation is the one-off path reconstruction,
//! outside every loop — pass clean. (The path ends in
//! `crates/graph/src/p2p.rs`, so every function in the file is hot.)
fn search(scratch: &mut Scratch, source: u32, target: u32) -> Option<Vec<u32>> {
    scratch.front.clear();
    scratch.front.push(source);
    while !scratch.front.is_empty() {
        scratch.next.clear();
        for &v in &scratch.front {
            if v == target {
                return Some(reconstruct(scratch, v));
            }
            scratch.next.push(v + 1);
        }
        std::mem::swap(&mut scratch.front, &mut scratch.next);
    }
    None
}

fn reconstruct(scratch: &Scratch, at: u32) -> Vec<u32> {
    let mut path = vec![at]; // alloc-ok: path reconstruction runs once, at the target
    let mut cur = at;
    while let Some(&p) = scratch.parent.get(cur as usize) {
        path.push(p);
        cur = p;
    }
    path
}
