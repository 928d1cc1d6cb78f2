//! Fixture: a tracer that copies every advertised path to compare it.

/// Diffs an advertised path against the shadow by copying it into a fresh
/// `Vec` first — once per advertisement, changed or not.
pub fn observe_update(shadow: &mut Vec<(u32, u64)>, path: &[(u32, u64)]) -> bool {
    let copy: Vec<(u32, u64)> = path.iter().map(|&(node, cost)| (node, cost)).collect();
    if *shadow == copy {
        return false;
    }
    *shadow = copy;
    true
}
