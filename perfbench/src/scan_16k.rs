//! `scan_16k`: a 2-shard `FcCluster` at the paper's 16 KiB page size.
//! Operands sit in AND groups spread over dies and shards; queries are
//! drawn uniformly from a population far larger than the per-shard
//! result cache, so nearly every query senses. The mix is single-group
//! AND (one MWS sense), OR-of-ANDs across groups on one shard (cross-die
//! controller merge) and across shards (cluster merge), and threshold
//! over co-resident members (`ThresholdMws`). Host time goes to chip
//! emulation over 16 KiB pages and to the merges.

use std::hint::black_box;
use std::time::Instant;

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::{Expr, FcCluster, OperandId, QueryBatch, StoreHints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::serve::{record_plan, shadow_eval, verify};
use crate::stats::{Failure, Hist, Recorder};
use crate::trace::Tracer;
use crate::workload::{pick, Episode, EpisodeEnd, Prepared, Sizes, CLIENTS};

pub const SHARDS: usize = 2;
/// AND groups; group `g` lives on shard `g % SHARDS`.
pub const GROUPS: usize = 32;
pub const MEMBERS: usize = 8;
/// Distinct queries the traffic draws from, uniformly.
pub const POPULATION: usize = 65_536;
pub const QUERIES_PER_BATCH: usize = 4;
/// Requests each client sends per episode.
pub const REQUESTS: usize = 750;

/// One shard: 2 channels × 2 dies × 2 planes, 48-wordline blocks of
/// 16 KiB pages (Table 1's page and block shape on a smaller die count).
pub fn config() -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.page_bytes = 16 * 1024;
    cfg.wls_per_block = 48;
    cfg
}

/// One query of the population, with the per-shard leaves the router
/// will split it into (in shard-local operand ids) for the compile and
/// lint probes of the traced run.
struct ScanQuery {
    expr: Expr,
    leaves: Vec<(usize, Expr)>,
}

struct Scan16k {
    cluster: FcCluster,
    /// Operand data by cluster operand id.
    shadow: Vec<BitVec>,
    population: Vec<ScanQuery>,
    /// Per client: batches as population indices.
    clients: Vec<Vec<Vec<usize>>>,
    batches: Vec<Vec<QueryBatch>>,
}

pub fn prepare(seed: u64) -> Prepared {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = FcCluster::new(config(), SHARDS);
    let bits = config().page_bits();
    let mut shadow = Vec::with_capacity(GROUPS * MEMBERS);
    let mut load_write_us = Hist::default();
    // (cluster id, shard-local id) of member m of group g.
    let mut ids = vec![[(0usize, 0usize); MEMBERS]; GROUPS];
    for (g, row) in ids.iter_mut().enumerate() {
        let shard = g % SHARDS;
        for (m, slot) in row.iter_mut().enumerate() {
            // Rendezvous routing decides a name's shard: pick the first
            // name variant the router homes on this group's shard.
            let name = (0..)
                .map(|k| format!("g{g}m{m}v{k}"))
                .find(|n| cluster.home_shard(n) == shard)
                .expect("some name variant routes to every shard");
            let v = BitVec::random(bits, &mut rng);
            let t = Instant::now();
            let h = cluster
                .fc_write(&name, &v, StoreHints::and_group(&format!("g{g}")))
                .expect("fresh cluster stores the operand set");
            load_write_us.push(t.elapsed().as_secs_f64() * 1e6);
            let local = cluster.shard(shard).operand(&name).expect("stored on its home").id;
            *slot = (h.id, local);
            assert_eq!(h.id, shadow.len(), "cluster ids are dense in write order");
            shadow.push(v);
        }
    }
    let and_term = |g: usize, members: &[usize]| -> (Expr, Expr) {
        (
            Expr::and_vars(members.iter().map(|&m| ids[g][m].0)),
            Expr::and_vars(members.iter().map(|&m| ids[g][m].1)),
        )
    };
    let population = (0..POPULATION)
        .map(|_| {
            let g = rng.gen_range(0..GROUPS);
            let shard = g % SHARDS;
            match rng.gen_range(0..8) {
                // Single-group AND: one MWS sense.
                0..=2 => {
                    let n = rng.gen_range(2..=MEMBERS);
                    let (expr, local) = and_term(g, &pick(n, 0..MEMBERS, &mut rng));
                    ScanQuery { expr, leaves: vec![(shard, local)] }
                }
                // OR of two ANDs from distinct groups, on one shard or two.
                3..=5 => {
                    let h = (g + rng.gen_range(1..GROUPS)) % GROUPS;
                    let (a, la) = and_term(g, &pick(rng.gen_range(2..=4), 0..MEMBERS, &mut rng));
                    let (b, lb) = and_term(h, &pick(rng.gen_range(2..=4), 0..MEMBERS, &mut rng));
                    let leaves = if h % SHARDS == shard {
                        vec![(shard, Expr::or(vec![la, lb]))]
                    } else {
                        vec![(shard, la), (h % SHARDS, lb)]
                    };
                    ScanQuery { expr: Expr::or(vec![a, b]), leaves }
                }
                // Threshold over co-resident members: one ThresholdMws.
                _ => {
                    let n = rng.gen_range(3..=MEMBERS);
                    let k = rng.gen_range(2..n);
                    let members = pick(n, 0..MEMBERS, &mut rng);
                    ScanQuery {
                        expr: Expr::threshold_vars(k, members.iter().map(|&m| ids[g][m].0)),
                        leaves: vec![(
                            shard,
                            Expr::threshold_vars(k, members.iter().map(|&m| ids[g][m].1)),
                        )],
                    }
                }
            }
        })
        .collect::<Vec<_>>();
    let clients: Vec<Vec<Vec<usize>>> = (0..CLIENTS)
        .map(|_| {
            (0..REQUESTS)
                .map(|_| (0..QUERIES_PER_BATCH).map(|_| rng.gen_range(0..POPULATION)).collect())
                .collect()
        })
        .collect();
    let batches = clients
        .iter()
        .map(|reqs| {
            reqs.iter()
                .map(|qs: &Vec<usize>| qs.iter().map(|&i| population[i].expr.clone()).collect())
                .collect()
        })
        .collect();
    let mut sizes = Sizes::of(cluster.shard_mut(0), GROUPS * MEMBERS, POPULATION);
    let mut health0 = flash_cosmos::DeviceHealth::default();
    for s in 1..SHARDS {
        let more = Sizes::of(cluster.shard_mut(s), 0, 0);
        sizes.wordlines += more.wordlines;
        sizes.wordlines_used_at_setup += more.wordlines_used_at_setup;
    }
    for s in 0..SHARDS {
        crate::workload::add_health(&mut health0, &cluster.shard(s).health(), 1);
    }
    let episode = Scan16k { cluster, shadow, population, clients, batches };
    Prepared { episode: Box::new(episode), load_write_us, sizes, health0 }
}

impl Scan16k {
    /// Traced-run probes: canonicalization, then the compile and plan
    /// lint of each shard's share of the batch.
    fn probe(&self, qs: &[usize], batch: &QueryBatch, req: u64, tr: &mut Tracer) {
        tr.span("expr.to_nnf", req, || {
            for q in batch.queries() {
                black_box(q.to_nnf());
            }
        });
        let subs: Vec<QueryBatch> = (0..SHARDS)
            .map(|s| {
                qs.iter()
                    .flat_map(|&i| self.population[i].leaves.iter())
                    .filter(|(shard, _)| *shard == s)
                    .map(|(_, e)| e.clone())
                    .collect()
            })
            .collect();
        let mut probes = Vec::with_capacity(SHARDS);
        tr.span("batch.compile_probe", req, || {
            for (s, sub) in subs.iter().enumerate() {
                if !sub.is_empty() {
                    if let Ok(p) = self.cluster.shard(s).compile_probe(sub) {
                        probes.push((s, p));
                    }
                }
            }
        });
        tr.span("audit.lint_probe", req, || {
            for (s, p) in &probes {
                black_box(self.cluster.shard(*s).lint_probe(p));
            }
        });
    }
}

impl Episode for Scan16k {
    fn run_client(&self, client: usize, rec: &mut Recorder, tr: &mut Tracer, req0: u64) {
        let lookup = |id: OperandId| &self.shadow[id];
        for (i, (qs, batch)) in self.clients[client].iter().zip(&self.batches[client]).enumerate() {
            let req = req0 + i as u64;
            let n = batch.len() as u64;
            rec.attempted += n;
            tr.begin("bench.request", req);
            if tr.on() {
                self.probe(qs, batch, req, tr);
            }
            let start = Instant::now();
            let out = tr.span("cluster.submit", req, || self.cluster.submit(batch));
            let host_us = start.elapsed().as_secs_f64() * 1e6;
            let ok = match out {
                Ok(out) => {
                    let s = &out.stats;
                    rec.queries += n;
                    rec.senses += s.senses;
                    rec.modeled_us.push(s.critical_path_us);
                    let c = &mut rec.counters;
                    c.batches += 1;
                    c.busiest_die_us += s.busiest_die_us;
                    c.busiest_channel_us += s.busiest_channel_us;
                    c.exec_merge_us += s.merge_us;
                    let mut crossdie = 0.0;
                    let mut shard_paths = 0.0;
                    for b in s.per_shard.iter().filter(|b| b.queries > 0) {
                        rec.energy_uj += b.energy_uj;
                        c.shards_touched += 1;
                        record_plan(c, b);
                        crossdie += b.merge_us;
                        shard_paths += b.critical_path_us;
                    }
                    c.crossdie_merge_us += crossdie;
                    c.cluster_merge_us += s.merge_us - crossdie;
                    c.overlap_saved_us += shard_paths - s.critical_path_us;
                    match s.bottleneck() {
                        flash_cosmos::Bottleneck::Channel => c.channel_bound += 1,
                        flash_cosmos::Bottleneck::Merge => c.merge_bound += 1,
                        flash_cosmos::Bottleneck::Die => {}
                    }
                    let failed: Vec<usize> = out.failures.iter().map(|f| f.query).collect();
                    tr.span("bench.verify", req, || {
                        verify(rec, &out.results, &failed, |q| {
                            shadow_eval(&batch.queries()[q], &lookup)
                        })
                    })
                }
                Err(e) => {
                    rec.error("cluster.submit", &e);
                    rec.fail(Failure::Error, n - 1);
                    false
                }
            };
            rec.req_us.push(if ok { host_us } else { f64::INFINITY });
            tr.end();
        }
    }

    fn finish(&mut self) -> EpisodeEnd {
        let mut end = EpisodeEnd::default();
        for s in 0..SHARDS {
            end.add_device(self.cluster.shard_mut(s));
        }
        end
    }
}
