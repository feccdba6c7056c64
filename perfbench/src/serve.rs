//! One closed-loop query request through a device's async session:
//! `submit_async` → `drain` → `wait`, timed from outside, with the
//! traced run's probes and the correctness gate around it.

use std::hint::black_box;
use std::time::Instant;

use fc_bits::BitVec;
use flash_cosmos::{
    BatchResults, BatchStats, Bottleneck, Expr, FcError, FlashCosmosDevice, OperandId, QueryBatch,
};

use crate::stats::{Counters, Failure, Recorder};
use crate::trace::Tracer;

/// Folds one batch's device statistics into the recorder (modeled clock
/// and per-layer counters; read after the latency bracket closed).
pub fn record_batch(rec: &mut Recorder, s: &BatchStats) {
    rec.modeled_us.push(s.critical_path_us);
    rec.senses += s.senses;
    rec.energy_uj += s.energy_uj;
    let c = &mut rec.counters;
    c.batches += 1;
    record_plan(c, s);
    c.busiest_die_us += s.busiest_die_us;
    c.busiest_channel_us += s.busiest_channel_us;
    c.crossdie_merge_us += s.merge_us;
    match s.bottleneck() {
        Bottleneck::Channel => c.channel_bound += 1,
        Bottleneck::Merge => c.merge_bound += 1,
        Bottleneck::Die => {}
    }
}

/// Folds the compile-side counters of one device's batch: serial and
/// saved senses, shared units, deduplicated queries and dies used. A
/// cluster request reports one such batch per shard.
pub fn record_plan(c: &mut Counters, s: &BatchStats) {
    c.serial_senses += s.serial_senses;
    c.senses_saved += s.senses_saved();
    c.shared_units += s.shared_units as u64;
    c.deduped_queries += s.deduped_queries as u64;
    c.dies_used += s.dies_used as u64;
}

/// The host shadow's answer to `e`: the same function as `Expr::eval`,
/// word-parallel (`Expr::eval` counts threshold votes bit by bit, which
/// on 16 KiB pages would cost more than the query it checks).
pub fn shadow_eval<'a>(e: &Expr, shadow: &impl Fn(OperandId) -> &'a BitVec) -> BitVec {
    match e {
        Expr::Operand(id) => shadow(*id).clone(),
        Expr::Not(x) => shadow_eval(x, shadow).not(),
        Expr::And(es) => {
            let mut acc = shadow_eval(&es[0], shadow);
            for x in &es[1..] {
                match x {
                    Expr::Operand(id) => acc.and_assign(shadow(*id)),
                    _ => acc.and_assign(&shadow_eval(x, shadow)),
                }
            }
            acc
        }
        Expr::Or(es) => {
            let mut acc = shadow_eval(&es[0], shadow);
            for x in &es[1..] {
                match x {
                    Expr::Operand(id) => acc.or_assign(shadow(*id)),
                    _ => acc.or_assign(&shadow_eval(x, shadow)),
                }
            }
            acc
        }
        Expr::Xor(a, b) => shadow_eval(a, shadow).xor(&shadow_eval(b, shadow)),
        Expr::Threshold { k, children } => at_least(*k, children, shadow),
        Expr::Majority(children) => at_least(children.len().div_ceil(2), children, shadow),
    }
}

/// Bit `i` is set iff at least `k` children have bit `i` set: per word,
/// `reach[t]` holds the lanes where `t` of the children seen so far voted.
fn at_least<'a>(k: usize, children: &[Expr], shadow: &impl Fn(OperandId) -> &'a BitVec) -> BitVec {
    let owned: Vec<Option<BitVec>> = children
        .iter()
        .map(|c| match c {
            Expr::Operand(_) => None,
            _ => Some(shadow_eval(c, shadow)),
        })
        .collect();
    let votes: Vec<&BitVec> = children
        .iter()
        .zip(&owned)
        .map(|(c, o)| match (c, o) {
            (_, Some(v)) => v,
            (Expr::Operand(id), None) => shadow(*id),
            _ => unreachable!("only operand children are left unevaluated"),
        })
        .collect();
    let mut reach = vec![0u64; k + 1];
    BitVec::from_fn_words(votes[0].len(), |w| {
        reach.fill(0);
        reach[0] = !0;
        for v in &votes {
            let x = v.words()[w];
            for t in (1..=k).rev() {
                reach[t] |= reach[t - 1] & x;
            }
        }
        reach[k]
    })
}

/// Checks every answered query against the host shadow and returns
/// whether the whole request succeeded. `expected(q)` evaluates query
/// `q` with [`shadow_eval`] over the client's shadow data.
pub fn verify(
    rec: &mut Recorder,
    results: &[BitVec],
    failed: &[usize],
    expected: impl Fn(usize) -> BitVec,
) -> bool {
    let mut ok = failed.is_empty();
    rec.fail(Failure::Listed, failed.len() as u64);
    for (q, got) in results.iter().enumerate() {
        if failed.contains(&q) {
            continue;
        }
        if *got != expected(q) {
            rec.wrong("query");
            ok = false;
        }
    }
    ok
}

/// Runs one batch request. Returns the results when the session answered
/// (possibly with listed failures); errors and refusals are recorded as
/// failures of every query in the batch.
pub fn session_request(
    dev: &FlashCosmosDevice,
    batch: &QueryBatch,
    req: u64,
    rec: &mut Recorder,
    tr: &mut Tracer,
) -> (f64, Option<BatchResults>) {
    let n = batch.len() as u64;
    rec.attempted += n;
    if tr.on() {
        // Probes: the same compile the submit will do (without feeding
        // the affinity tracker), its plan lint, and canonicalization.
        tr.span("expr.to_nnf", req, || {
            for q in batch.queries() {
                black_box(q.to_nnf());
            }
        });
        if let Ok(probe) = tr.span("batch.compile_probe", req, || dev.compile_probe(batch)) {
            tr.span("audit.lint_probe", req, || black_box(dev.lint_probe(&probe)));
        }
    }
    let start = Instant::now();
    let ticket = match tr.span("session.submit_async", req, || dev.submit_async(batch)) {
        Ok(t) => t,
        Err(e) => {
            if matches!(e, FcError::Overloaded { .. }) {
                rec.counters.overloaded += 1;
                rec.fail(Failure::Overloaded, n);
            } else {
                rec.error("submit_async", &e);
                rec.fail(Failure::Error, n - 1);
            }
            return (f64::INFINITY, None);
        }
    };
    let drained = tr.span("session.drain", req, || dev.drain());
    let waited = tr.span("session.wait", req, || ticket.wait(dev));
    let host_us = start.elapsed().as_secs_f64() * 1e6;
    match drained {
        Ok(d) => {
            let c = &mut rec.counters;
            if d.batches > 0 {
                c.drains += 1;
                c.drained_batches += d.batches as u64;
                c.overlap_saved_us += d.overlap_saved_us();
            }
            c.exec_merge_us += d.merge_us;
            c.jobs_executed += d.maintenance.jobs_executed as u64;
            c.jobs_deferred += d.maintenance.jobs_deferred as u64;
            c.jobs_retired += d.maintenance.jobs_retired as u64;
        }
        Err(e) => {
            rec.attempted += 1;
            rec.error("drain", &e);
        }
    }
    match waited {
        Ok(out) => {
            rec.queries += n;
            record_batch(rec, &out.stats);
            (host_us, Some(out))
        }
        Err(e) => {
            rec.error("wait", &e);
            rec.fail(Failure::Error, n - 1);
            (f64::INFINITY, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shadow_eval_matches_expr_eval() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<BitVec> = (0..6).map(|_| BitVec::random(200, &mut rng)).collect();
        let exprs = [
            Expr::threshold_vars(2, [0, 1, 2]),
            Expr::threshold_vars(4, [0, 1, 2, 3, 4, 5]),
            Expr::majority_vars([1, 2, 3, 4, 5]),
            Expr::or(vec![Expr::and_vars([0, 1]), Expr::not(Expr::and_vars([2, 3]))]),
            Expr::xor(Expr::var(4), Expr::threshold_vars(2, [0, 3, 5])),
        ];
        for e in &exprs {
            assert_eq!(shadow_eval(e, &|id| &data[id]), e.eval(&|id| data[id].clone()), "{e}");
        }
        for _ in 0..50 {
            let n = rng.gen_range(3..=6);
            let k = rng.gen_range(2..n);
            let e = Expr::threshold_vars(k, 0..n);
            assert_eq!(shadow_eval(&e, &|id| &data[id]), e.eval(&|id| data[id].clone()));
        }
    }
}
