//! Fixture: a point-to-point kernel that allocates its next frontier once
//! per level — must be flagged, although no function here is named `next`
//! (the path ends in `crates/graph/src/p2p.rs`, a whole-file-hot kernel).
fn search(front: &mut Vec<u32>, target: u32) -> bool {
    while !front.is_empty() {
        let mut next = Vec::new();
        for &v in front.iter() {
            if v == target {
                return true;
            }
            next.push(v + 1);
        }
        *front = next;
    }
    false
}
