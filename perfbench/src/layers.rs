//! The per-layer metrics of the traced run, computed from the span table,
//! the probe counters and each workload's own layer values.

use crate::common::Outcome;
use crate::trace::{self, ctr, kind, op, Snapshot, FAMILIES};
use std::collections::BTreeMap;

/// Kernel throughputs measured by direct calls, GB/s.
pub struct Kernels {
    /// `ae_kernels::xor_into`.
    pub xor: f64,
    /// `ae_kernels::mul_slice_acc`.
    pub gf_mul_acc: f64,
    /// `ae_kernels::crc32_update`.
    pub crc32: f64,
}

/// The workloads' own named metrics, repeated in the traced run as
/// `e2e.<name>` (0 where a workload has no such metric).
const NAMED: [(&str, &str); 10] = [
    ("ingest_MBps", "MB/s"),
    ("put_p50_ms", "ms"),
    ("put_p99_ms", "ms"),
    ("get_p50_ms", "ms"),
    ("get_p99_ms", "ms"),
    ("goodput_ops", "op/s"),
    ("reopen_ms", "ms"),
    ("scrub_s", "s"),
    ("sweep_cells_per_s", "cells/s"),
    ("storage_overhead", "ratio"),
];

/// Every per-layer metric: `(name, unit, better)`, in output order.
pub fn names() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str, b: &'static str| v.push((n.to_string(), u, b));
    add("kernels.xor_GBps", "GB/s", "higher");
    add("kernels.gf_mul_acc_GBps", "GB/s", "higher");
    add("kernels.crc32_GBps", "GB/s", "higher");
    for f in FAMILIES {
        add(&format!("scheme.{f}.encode_s"), "s", "lower");
        add(&format!("scheme.{f}.encode_calls"), "count", "lower");
        add(&format!("scheme.{f}.frontier_snapshot_s"), "s", "lower");
        add(&format!("scheme.{f}.repair_block_s"), "s", "lower");
        add(&format!("scheme.{f}.repair_block_calls"), "count", "lower");
        add(&format!("scheme.{f}.repair_block_failed"), "count", "lower");
        add(&format!("scheme.{f}.repair_missing_s"), "s", "lower");
        add(&format!("scheme.{f}.repair_rounds"), "count", "lower");
        add(&format!("scheme.{f}.reads_per_repaired"), "ratio", "lower");
    }
    add("scheme.rs.decode_cache_hit_ratio", "ratio", "higher");
    add("store.archive.put_self_s", "s", "lower");
    add("store.archive.get_self_s", "s", "lower");
    add("store.archive.scrub_self_s", "s", "lower");
    add("store.archive.open_s", "s", "lower");
    add("store.meta.writes", "count", "lower");
    add("store.meta.write_s", "s", "lower");
    add("store.meta.checkpoints", "count", "lower");
    add("store.meta.bytes_per_user_byte", "ratio", "lower");
    add("store.meta.reads_on_open", "count", "lower");
    add("store.backend.stores", "count", "lower");
    add("store.backend.fetches", "count", "lower");
    add("store.backend.fetch_misses", "count", "lower");
    add("store.backend.busy_s", "s", "lower");
    add(
        "store.backend.bytes_written_per_user_byte",
        "ratio",
        "lower",
    );
    add("aio.inner_ops", "count", "lower");
    add("aio.effective_window", "ratio", "higher");
    add("aio.link_busy_frac", "fraction", "lower");
    add("service.queue_highwater", "count", "lower");
    add("service.saturated", "count", "lower");
    add("service.gen_lateness_p99_ms", "ms", "lower");
    add("service.unattributed_s", "s", "lower");
    add("service.shard_imbalance", "ratio", "lower");
    for name in crate::frontier::CELL_METRICS {
        add(name, "ms", "lower");
    }
    add("sim.rounds", "count", "lower");
    add("sim.blocks_read", "count", "lower");
    for (n, u) in NAMED {
        let better = if matches!(n, "ingest_MBps" | "goodput_ops" | "sweep_cells_per_s") {
            "higher"
        } else {
            "lower"
        };
        add(&format!("e2e.{n}"), u, better);
    }
    add("e2e.op_p99_ms", "ms", "lower");
    add("e2e.failed_frac", "fraction", "lower");
    add("trace.overhead_p50_frac", "fraction", "lower");
    add("trace.overhead_work_frac", "fraction", "lower");
    add("trace.unattributed_frac", "fraction", "lower");
    v
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Root span kinds the benchmark opens itself.
const ROOTS: [usize; 5] = [kind::PUT, kind::GET, kind::SCRUB, kind::OPEN, kind::CELL];

/// Share of benchmark-side op time (root spans) not covered by scheme or
/// backend spans, or the workload's own figure when it has one.
fn unattributed_frac(s: &Snapshot, traced: &Outcome) -> f64 {
    if let Some(&v) = traced.layers.get("trace.unattributed_frac") {
        return v;
    }
    let total: f64 = ROOTS.iter().map(|&r| s.table[r][r].1 as f64).sum();
    let own: f64 = ROOTS.iter().map(|&r| s.table[r][r].2 as f64).sum();
    ratio(own, total)
}

/// Computes every per-layer metric for a traced pass `traced`, with the
/// untraced pass `plain` of the same run as the overhead baseline.
pub fn compute(
    s: &Snapshot,
    traced: &Outcome,
    plain: &Outcome,
    k: &Kernels,
) -> Vec<(String, &'static str, f64)> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |n: &str, v: f64| {
        m.insert(n.to_string(), v);
    };
    set("kernels.xor_GBps", k.xor);
    set("kernels.gf_mul_acc_GBps", k.gf_mul_acc);
    set("kernels.crc32_GBps", k.crc32);
    for (fi, f) in FAMILIES.iter().enumerate() {
        let sk = |o| trace::scheme_kind(fi, o);
        let c = |i| s.counter(trace::family_ctr(fi, i)) as f64;
        set(&format!("scheme.{f}.encode_s"), s.total_s(sk(op::ENCODE)));
        set(
            &format!("scheme.{f}.encode_calls"),
            s.calls(sk(op::ENCODE)) as f64,
        );
        set(
            &format!("scheme.{f}.frontier_snapshot_s"),
            s.total_s(sk(op::SNAPSHOT)),
        );
        set(
            &format!("scheme.{f}.repair_block_s"),
            s.total_s(sk(op::REPAIR_BLOCK)),
        );
        set(
            &format!("scheme.{f}.repair_block_calls"),
            s.calls(sk(op::REPAIR_BLOCK)) as f64,
        );
        set(
            &format!("scheme.{f}.repair_block_failed"),
            c(ctr::REPAIR_FAILED),
        );
        set(
            &format!("scheme.{f}.repair_missing_s"),
            s.total_s(sk(op::REPAIR_MISSING)),
        );
        set(&format!("scheme.{f}.repair_rounds"), c(ctr::REPAIR_ROUNDS));
        set(
            &format!("scheme.{f}.reads_per_repaired"),
            ratio(c(ctr::REPAIR_READS), c(ctr::REPAIRED)),
        );
    }
    let user = traced.user_bytes as f64;
    set("store.archive.put_self_s", s.self_s(kind::PUT));
    set("store.archive.get_self_s", s.self_s(kind::GET));
    set("store.archive.scrub_self_s", s.self_s(kind::SCRUB));
    set("store.archive.open_s", s.total_s(kind::OPEN));
    set("store.meta.writes", s.calls(kind::META_STORE) as f64);
    set("store.meta.write_s", s.total_s(kind::META_STORE));
    set(
        "store.meta.checkpoints",
        s.counter(ctr::POINTER_WRITES) as f64 / ae_store::meta::MetaConfig::default().copies as f64,
    );
    set(
        "store.meta.bytes_per_user_byte",
        ratio(s.counter(ctr::META_BYTES) as f64, user),
    );
    set(
        "store.meta.reads_on_open",
        s.calls_under(kind::OPEN, kind::META_FETCH) as f64,
    );
    set(
        "store.backend.stores",
        (s.calls(kind::STORE) + s.calls(kind::META_STORE)) as f64,
    );
    set(
        "store.backend.fetches",
        (s.calls(kind::FETCH) + s.calls(kind::META_FETCH)) as f64,
    );
    set(
        "store.backend.fetch_misses",
        s.counter(ctr::FETCH_MISS) as f64,
    );
    set(
        "store.backend.busy_s",
        (kind::STORE..=kind::META_FETCH).map(|b| s.total_s(b)).sum(),
    );
    set(
        "store.backend.bytes_written_per_user_byte",
        ratio(
            (s.counter(ctr::BYTES_STORED) + s.counter(ctr::META_BYTES)) as f64,
            user,
        ),
    );
    for (n, _) in NAMED {
        let v = traced
            .named
            .iter()
            .find(|(name, _, _)| *name == n)
            .map_or(0.0, |t| t.2);
        set(&format!("e2e.{n}"), v);
    }
    set("e2e.op_p99_ms", traced.e2e.op_p99_ms);
    set(
        "e2e.failed_frac",
        ratio(traced.failed as f64, traced.attempted as f64),
    );
    set(
        "trace.overhead_p50_frac",
        ratio(traced.e2e.op_p50_ms, plain.e2e.op_p50_ms) - 1.0,
    );
    set(
        "trace.overhead_work_frac",
        ratio(plain.e2e.work_per_s, traced.e2e.work_per_s) - 1.0,
    );
    set("trace.unattributed_frac", unattributed_frac(s, traced));
    for (&n, &v) in &traced.layers {
        if n != "trace.unattributed_frac" {
            m.insert(n.to_string(), v);
        }
    }
    let out: Vec<(String, &'static str, f64)> = names()
        .into_iter()
        .map(|(n, u, _)| {
            let v = m.remove(&n).unwrap_or(0.0);
            (n, u, v)
        })
        .collect();
    assert!(m.is_empty(), "unlisted per-layer metrics: {:?}", m.keys());
    out
}

/// The attribution summary: for each root op, the self time of every
/// layer beneath it as a share of the op's total time; the root's own
/// self time is the unattributed remainder.
pub fn attribution(s: &Snapshot) -> Vec<String> {
    let mut lines = Vec::new();
    for r in ROOTS {
        let (calls, total, own) = s.table[r][r];
        if calls == 0 || total == 0 {
            continue;
        }
        let mut parts: Vec<(u64, String)> = (0..trace::KINDS)
            .filter(|&k| k != r && s.table[r][k].2 > 0)
            .map(|k| (s.table[r][k].2, trace::label(k)))
            .collect();
        parts.sort_by_key(|p| std::cmp::Reverse(p.0));
        let mut line = format!(
            "{} calls={calls} total_s={:.4}:",
            trace::label(r),
            total as f64 / 1e9
        );
        for (ns, l) in parts {
            line.push_str(&format!(" {l}={:.1}%", 100.0 * ns as f64 / total as f64));
        }
        line.push_str(&format!(
            " unattributed={:.1}%",
            100.0 * own as f64 / total as f64
        ));
        lines.push(line);
    }
    lines
}
