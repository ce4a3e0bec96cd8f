//! Output oracles: every answer the benchmark times is checked against
//! the full input, independently of the gossip run that produced it.
//!
//! - MED: the run must reach consensus, its value must match the
//!   sequential optimum (Welzl's algorithm on the full input) under the
//!   problem's `values_close`, and a full scan must find no element
//!   that violates the consensus basis.
//! - Hitting set: every node halted, every node's output hits every
//!   set, and no output is larger than the protocol's size bound.
//!
//! Each check returns `Err(reason)` on a wrong answer. [`perturb_med`]
//! and [`perturb_hs`] build deliberately wrong answers for the negative
//! control, which must be rejected.

use lpt::{Basis, LpType};
use lpt_geom::min_enclosing_disk;
use lpt_problems::{IdPoint2, Med, MedValue, SetSystem};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub type MedBasis = Basis<IdPoint2, MedValue>;

/// The sequential optimum of a MED instance (Welzl on the full input).
pub fn med_optimum(points: &[IdPoint2]) -> MedValue {
    let plain: Vec<_> = points.iter().map(|p| p.p).collect();
    let disk = min_enclosing_disk(&plain, &mut ChaCha8Rng::seed_from_u64(0x6f72_6163_6c65));
    MedValue {
        r2: disk.radius2(),
        cx: disk.center.x,
        cy: disk.center.y,
    }
}

/// Checks a MED answer (the run's consensus basis, if any) against the
/// full input and its sequential optimum.
pub fn check_med(
    points: &[IdPoint2],
    optimum: &MedValue,
    consensus: Option<&MedBasis>,
) -> Result<(), String> {
    let basis = consensus.ok_or("no consensus output")?;
    if !Med.values_close(&basis.value, optimum) {
        return Err(format!(
            "consensus r2 {} differs from the sequential optimum {}",
            basis.value.r2, optimum.r2
        ));
    }
    let violators = points.iter().filter(|h| Med.violates(basis, h)).count();
    if violators > 0 {
        return Err(format!(
            "{violators} input points violate the consensus basis"
        ));
    }
    Ok(())
}

/// Checks a MED value rendered on the wire (`med:r2=…`) against the
/// sequential optimum's squared radius.
pub fn check_med_r2(wire_consensus: Option<&str>, optimum: &MedValue) -> Result<(), String> {
    let text = wire_consensus.ok_or("reply has no consensus")?;
    let r2: f64 = text
        .strip_prefix("med:r2=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable MED consensus {text:?}"))?;
    let scale = r2.abs().max(optimum.r2.abs()).max(1.0);
    if (r2 - optimum.r2).abs() > 1e-7 * scale {
        return Err(format!(
            "wire r2 {r2} differs from the sequential optimum {}",
            optimum.r2
        ));
    }
    Ok(())
}

/// Checks a hitting-set run: all nodes halted, every output hits every
/// set, and every output respects the size bound.
pub fn check_hs(
    sys: &SetSystem,
    all_halted: bool,
    outputs: &[Option<Vec<u32>>],
    size_bound: usize,
) -> Result<(), String> {
    if !all_halted {
        return Err("not every node halted".to_string());
    }
    for (node, out) in outputs.iter().enumerate() {
        let hs = out
            .as_ref()
            .ok_or_else(|| format!("node {node} has no output"))?;
        if hs.len() > size_bound {
            return Err(format!(
                "node {node} output size {} > bound {size_bound}",
                hs.len()
            ));
        }
        if !sys.is_hitting_set(hs) {
            return Err(format!("node {node} output misses a set"));
        }
    }
    Ok(())
}

/// Checks a hitting set rendered on the wire (`hs:k:[ids]`).
pub fn check_hs_wire(sys: &SetSystem, wire_consensus: Option<&str>) -> Result<(), String> {
    let text = wire_consensus.ok_or("reply has no consensus")?;
    let parse = || -> Option<Vec<u32>> {
        let rest = text.strip_prefix("hs:")?;
        let (k, ids) = rest.split_once(':')?;
        let ids = ids.strip_prefix('[')?.strip_suffix(']')?;
        let set: Vec<u32> = if ids.is_empty() {
            Vec::new()
        } else {
            ids.split(',')
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?
        };
        (k.parse::<usize>().ok()? == set.len()).then_some(set)
    };
    let set = parse().ok_or_else(|| format!("unparseable hitting-set consensus {text:?}"))?;
    if !sys.is_hitting_set(&set) {
        return Err("wire hitting set misses a set".to_string());
    }
    Ok(())
}

/// A wrong MED answer: the consensus disk shrunk by 1%.
pub fn perturb_med(basis: &MedBasis) -> MedBasis {
    let mut wrong = basis.clone();
    wrong.value.r2 *= 0.99;
    wrong
}

/// A wrong hitting-set answer: the first node's output emptied (every
/// set is non-empty, so the empty set hits none of them).
pub fn perturb_hs(outputs: &[Option<Vec<u32>>]) -> Vec<Option<Vec<u32>>> {
    let mut wrong = outputs.to_vec();
    if let Some(first) = wrong.first_mut() {
        *first = Some(Vec::new());
    }
    wrong
}

/// A wrong wire answer: the rendered consensus with its value changed.
pub fn perturb_wire(consensus: &str) -> String {
    if let Some(r2) = consensus
        .strip_prefix("med:r2=")
        .and_then(|v| v.parse::<f64>().ok())
    {
        format!("med:r2={:?}", r2 * 0.99)
    } else {
        "hs:0:[]".to_string()
    }
}
