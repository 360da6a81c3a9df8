//! The reference answers: the canonical answer to every pooled query,
//! recorded when the benchmark was defined.
//!
//! A file holds a header naming the workload and a fingerprint of its pool,
//! then one FNV-1a hash of [`answer_key`] per pooled query, in pool order.
//! The fingerprint catches a changed generator, which would otherwise
//! compare answers against other queries' references.
//! `perfbench record --workload NAME` rewrites a workload's file.

use crate::check::{answer_key, Claim};
use crate::queries::Query;
use crate::workload::Workload;

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The hash under which an answer is recorded.
#[must_use]
pub fn answer_hash(claim: Option<&Claim>) -> u64 {
    fnv1a(answer_key(claim).as_bytes())
}

/// A fingerprint of every query in a pool.
#[must_use]
pub fn fingerprint(pool: &[Query]) -> u64 {
    let text: String = pool
        .iter()
        .map(|q| format!("{} {:?} {}\n", q.id, q.load, q.limit))
        .collect();
    fnv1a(text.as_bytes())
}

/// The path, relative to the repository root, of a workload's file.
#[must_use]
pub fn path(workload: Workload) -> String {
    format!("perfbench/reference/{}.txt", workload.name())
}

fn recorded(workload: Workload) -> &'static str {
    match workload {
        Workload::EcommerceDefault => include_str!("../reference/ecommerce-default.txt"),
        Workload::ScientificJob => include_str!("../reference/scientific-job.txt"),
        Workload::EcommerceExact => include_str!("../reference/ecommerce-exact.txt"),
    }
}

/// The recorded answer hashes for `pool`, in pool order.
///
/// # Errors
///
/// Fails when the file was recorded for another workload or pool, or does
/// not hold one answer per query.
pub fn load(workload: Workload, pool: &[Query]) -> Result<Vec<u64>, String> {
    let text = recorded(workload);
    let mut lines = text.lines();
    let expected_header = header(workload, pool);
    let header: Vec<&str> = lines.by_ref().take(2).collect();
    if header.join("\n") != expected_header {
        return Err(format!(
            "{} was recorded for another pool; run `perfbench record --workload {}`",
            path(workload),
            workload.name()
        ));
    }
    let hashes = lines
        .map(|l| u64::from_str_radix(l, 16).map_err(|e| format!("{}: {e}", path(workload))))
        .collect::<Result<Vec<u64>, String>>()?;
    if hashes.len() != pool.len() {
        return Err(format!(
            "{} holds {} answers for {} queries",
            path(workload),
            hashes.len(),
            pool.len()
        ));
    }
    Ok(hashes)
}

fn header(workload: Workload, pool: &[Query]) -> String {
    format!(
        "workload {}\npool {:016x} {}",
        workload.name(),
        fingerprint(pool),
        pool.len()
    )
}

/// The file text recording `hashes` as the answers to `pool`.
#[must_use]
pub fn render(workload: Workload, pool: &[Query], hashes: &[u64]) -> String {
    let mut out = header(workload, pool);
    out.push('\n');
    for h in hashes {
        out += &format!("{h:016x}\n");
    }
    out
}
